// Tests for path isolation and the atomic update operations: each
// grammar-side operation must match the same operation executed on the
// decompressed tree (reference implementation below), across random
// update sequences.

#include "src/update/update_ops.h"

#include <gtest/gtest.h>

#include <string>

#include "src/common/rng.h"
#include "src/core/grammar_repair.h"
#include "src/grammar/stats.h"
#include "src/grammar/text_format.h"
#include "src/grammar/validate.h"
#include "src/grammar/value.h"
#include "src/repair/tree_repair.h"
#include "src/tree/tree_hash.h"
#include "src/tree/tree_io.h"
#include "src/update/batch.h"
#include "src/update/udc.h"
#include "src/xml/binary_encoding.h"
#include "src/xml/xml_parser.h"

namespace slg {
namespace {

// --- Reference implementations on plain trees --------------------------

void RefRename(Tree* t, int64_t pre, LabelId l) {
  NodeId u = t->AtPreorderIndex(static_cast<int>(pre));
  ASSERT_NE(u, kNilNode);
  t->set_label(u, l);
}

void RefInsertBefore(Tree* t, int64_t pre, const Tree& s) {
  NodeId u = t->AtPreorderIndex(static_cast<int>(pre));
  ASSERT_NE(u, kNilNode);
  NodeId copy = t->CopySubtreeFrom(s, s.root());
  NodeId hole = RightmostLeaf(*t, copy);
  if (t->label(u) == kNullLabel) {
    t->ReplaceWith(u, copy);
    t->FreeSubtree(u);
    return;
  }
  NodeId after = t->next_sibling(u);
  NodeId parent = t->parent(u);
  t->Detach(u);
  if (parent == kNilNode) {
    t->SetRoot(copy);
  } else if (after != kNilNode) {
    t->InsertBefore(after, copy);
  } else {
    t->AppendChild(parent, copy);
  }
  t->ReplaceWith(hole, u);
  t->FreeSubtree(hole);
}

void RefDelete(Tree* t, int64_t pre) {
  NodeId u = t->AtPreorderIndex(static_cast<int>(pre));
  ASSERT_NE(u, kNilNode);
  NodeId ns = t->Child(u, 2);
  t->Detach(ns);
  t->ReplaceWith(u, ns);
  t->FreeSubtree(u);
}

Grammar CompressedSample() {
  auto xml = ParseXml(
      "<log><e><ip/><d/><st/></e><e><ip/><d/><st/></e>"
      "<e><ip/><d/><st/></e><e><ip/><d/><st/></e>"
      "<e><ip/><d/><st/></e><e><ip/><d/><st/></e></log>");
  SLG_CHECK(xml.ok());
  LabelTable labels;
  Tree bin = EncodeBinary(xml.value(), &labels);
  return TreeRePair(std::move(bin), labels, {}).grammar;
}

TEST(PathIsolationTest, IsolatesEveryPosition) {
  Grammar g0 = CompressedSample();
  Tree full = Value(g0).take();
  std::vector<NodeId> order = full.Preorder();
  for (int64_t pre = 1; pre <= static_cast<int64_t>(order.size()); ++pre) {
    Grammar g = g0.Clone();
    StatusOr<NodeId> u = BatchUpdater(&g).Isolate(pre);
    ASSERT_TRUE(u.ok()) << u.status().ToString();
    // The isolated node's label matches the tree node's label.
    EXPECT_EQ(g.rhs(g.start()).label(u.value()),
              full.label(order[static_cast<size_t>(pre - 1)]))
        << "at " << pre;
    // Isolation must not change the derived tree.
    ASSERT_TRUE(Validate(g).ok());
    EXPECT_TRUE(TreeEquals(Value(g).take(), full)) << "at " << pre;
  }
}

TEST(PathIsolationTest, OutOfRangeRejected) {
  Grammar g = CompressedSample();
  EXPECT_FALSE(BatchUpdater(&g).Isolate(0).ok());
  EXPECT_FALSE(BatchUpdater(&g).Isolate(ValueNodeCount(g) + 1).ok());
}

TEST(PathIsolationTest, SizeBoundLooselyHolds) {
  // Lemma 1: |iso(G,u)| <= 2|G| — check the observable proxy: the
  // grammar after one isolation is at most ~2x the original.
  Grammar g0 = CompressedSample();
  int64_t before = ComputeStats(g0).node_count;
  int64_t n = ValueNodeCount(g0);
  for (int64_t pre = 1; pre <= n; pre += 7) {
    Grammar g = g0.Clone();
    ASSERT_TRUE(BatchUpdater(&g).Isolate(pre).ok());
    EXPECT_LE(ComputeStats(g).node_count, 2 * before + 2);
  }
}

TEST(UpdateOpsTest, RenameMatchesReference) {
  Grammar g = CompressedSample();
  Tree ref = Value(g).take();
  // Rename the 5th and 20th nodes.
  for (int64_t pre : {5, 20, 1}) {
    if (ref.label(ref.AtPreorderIndex(static_cast<int>(pre))) == kNullLabel) {
      continue;
    }
    ASSERT_TRUE(RenameNode(&g, pre, "zz").ok());
    LabelId zz = g.labels().Find("zz");
    RefRename(&ref, pre, zz);
    ASSERT_TRUE(Validate(g).ok());
    Tree got = Value(g).take();
    ASSERT_TRUE(TreeEquals(got, ref)) << "rename at " << pre;
  }
}

TEST(UpdateOpsTest, RenameRejectsNullTargets) {
  Grammar g = CompressedSample();
  Tree ref = Value(g).take();
  // Find a ⊥ position.
  int64_t null_pre = -1;
  std::vector<NodeId> order = ref.Preorder();
  for (size_t i = 0; i < order.size(); ++i) {
    if (ref.label(order[i]) == kNullLabel) {
      null_pre = static_cast<int64_t>(i + 1);
      break;
    }
  }
  ASSERT_GT(null_pre, 0);
  EXPECT_FALSE(RenameNode(&g, null_pre, "zz").ok());
  EXPECT_FALSE(RenameNode(&g, 1, "~").ok());
}

Tree MakeFragment(LabelTable* labels, const std::string& term) {
  return ParseTerm(term, labels).take();
}

TEST(UpdateOpsTest, InsertMatchesReference) {
  Grammar g = CompressedSample();
  Tree ref = Value(g).take();
  Tree frag = MakeFragment(&g.labels(), "w(v(~,~),~)");
  for (int64_t pre : {3, 1, 10}) {
    ASSERT_TRUE(InsertTreeBefore(&g, pre, frag).ok()) << pre;
    RefInsertBefore(&ref, pre, frag);
    ASSERT_TRUE(Validate(g).ok());
    Tree got = Value(g).take();
    ASSERT_TRUE(TreeEquals(got, ref)) << "insert at " << pre;
  }
}

TEST(UpdateOpsTest, InsertIntoNullSlot) {
  Grammar g = CompressedSample();
  Tree ref = Value(g).take();
  Tree frag = MakeFragment(&g.labels(), "w(~,~)");
  int64_t null_pre = -1;
  std::vector<NodeId> order = ref.Preorder();
  for (size_t i = 0; i < order.size(); ++i) {
    if (ref.label(order[i]) == kNullLabel) {
      null_pre = static_cast<int64_t>(i + 1);
      break;
    }
  }
  ASSERT_GT(null_pre, 0);
  ASSERT_TRUE(InsertTreeBefore(&g, null_pre, frag).ok());
  RefInsertBefore(&ref, null_pre, frag);
  EXPECT_TRUE(TreeEquals(Value(g).take(), ref));
}

TEST(UpdateOpsTest, InsertRejectsBadFragment) {
  Grammar g = CompressedSample();
  // Rightmost leaf not ⊥.
  Tree bad = MakeFragment(&g.labels(), "w(~,v(~,q))");
  EXPECT_FALSE(InsertTreeBefore(&g, 1, bad).ok());
  EXPECT_FALSE(InsertTreeBefore(&g, 1, Tree()).ok());
}

TEST(UpdateOpsTest, DeleteMatchesReference) {
  Grammar g = CompressedSample();
  Tree ref = Value(g).take();
  for (int64_t pre : {4, 2}) {
    if (ref.label(ref.AtPreorderIndex(static_cast<int>(pre))) == kNullLabel) {
      continue;
    }
    ASSERT_TRUE(DeleteSubtree(&g, pre).ok()) << pre;
    RefDelete(&ref, pre);
    ASSERT_TRUE(Validate(g).ok());
    Tree got = Value(g).take();
    ASSERT_TRUE(TreeEquals(got, ref)) << "delete at " << pre;
  }
}

TEST(UpdateOpsTest, ReadLabelSeesThroughCompression) {
  Grammar g = CompressedSample();
  Tree ref = Value(g).take();
  std::vector<NodeId> order = ref.Preorder();
  for (int64_t pre = 1; pre <= static_cast<int64_t>(order.size()); pre += 5) {
    auto l = ReadLabel(&g, pre);
    ASSERT_TRUE(l.ok());
    EXPECT_EQ(l.value(),
              g.labels().Name(ref.label(order[static_cast<size_t>(pre - 1)])));
  }
}

// --- Randomized sequence property test ---------------------------------

struct SeqCase {
  uint64_t seed;
  int ops;
};

class UpdateSequenceTest : public ::testing::TestWithParam<SeqCase> {};

TEST_P(UpdateSequenceTest, GrammarTracksReferenceTree) {
  const SeqCase& c = GetParam();
  Rng rng(c.seed);
  Grammar g = CompressedSample();
  Tree ref = Value(g).take();
  Tree frag = MakeFragment(&g.labels(), "nn(mm(~,~),~)");

  int applied = 0;
  for (int i = 0; i < c.ops; ++i) {
    int64_t n = ref.LiveCount();
    int64_t pre = rng.Range(1, n);
    NodeId ref_node = ref.AtPreorderIndex(static_cast<int>(pre));
    uint64_t kind = rng.Below(10);
    if (kind < 1 && ref.label(ref_node) != kNullLabel &&
        ref_node != ref.root()) {
      ASSERT_TRUE(DeleteSubtree(&g, pre).ok());
      RefDelete(&ref, pre);
      ++applied;
    } else if (kind < 4) {
      if (ref.label(ref_node) == kNullLabel) continue;
      std::string label = "r" + std::to_string(rng.Below(4));
      ASSERT_TRUE(RenameNode(&g, pre, label).ok());
      RefRename(&ref, pre, g.labels().Find(label));
      ++applied;
    } else {
      ASSERT_TRUE(InsertTreeBefore(&g, pre, frag).ok());
      RefInsertBefore(&ref, pre, frag);
      ++applied;
    }
    ASSERT_TRUE(Validate(g).ok()) << "op " << i;
  }
  ASSERT_GT(applied, 0);
  EXPECT_TRUE(TreeEquals(Value(g).take(), ref));

  // Recompression after the sequence preserves the tree and shrinks
  // the grammar.
  int64_t before = ComputeStats(g).edge_count;
  GrammarRepairResult r = GrammarRePair(std::move(g), {});
  ASSERT_TRUE(Validate(r.grammar).ok());
  EXPECT_TRUE(TreeEquals(Value(r.grammar).take(), ref));
  EXPECT_LE(ComputeStats(r.grammar).edge_count, before);
}

INSTANTIATE_TEST_SUITE_P(Random, UpdateSequenceTest,
                         ::testing::Values(SeqCase{1, 30}, SeqCase{2, 60},
                                           SeqCase{3, 100}, SeqCase{4, 150},
                                           SeqCase{5, 40}, SeqCase{6, 80}));

TEST(UdcTest, MatchesFreshCompression) {
  Grammar g = CompressedSample();
  ASSERT_TRUE(RenameNode(&g, 3, "qq").ok());
  Tree updated = Value(g).take();
  auto udc = UpdateDecompressCompress(g);
  ASSERT_TRUE(udc.ok());
  EXPECT_TRUE(TreeEquals(Value(udc.value().grammar).take(), updated));
  EXPECT_EQ(udc.value().tree_nodes, updated.LiveCount());
}

TEST(UdcTest, BudgetRespected) {
  Grammar g = CompressedSample();
  auto udc = UpdateDecompressCompress(g, {}, 3);
  EXPECT_FALSE(udc.ok());
}

}  // namespace
}  // namespace slg
