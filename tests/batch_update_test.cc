// Tests for the batched update engine and the bucketed
// GrammarDigramIndex port:
//  * applying a workload through BatchUpdater must produce the exact
//    same grammar (not just the same tree) as applying it one
//    operation at a time — batching only amortizes snapshot reuse and
//    garbage-collection timing;
//  * the bucketed GrammarDigramIndex must drive GrammarRePair to
//    byte-identical grammars against the legacy hash-set + lazy-heap
//    index (kept verbatim below) on all four cross-check corpora;
//  * the worklist CollectGarbageRules must reach the same fixpoint as
//    the old recompute-everything loop.

#include "src/update/batch.h"

#include "tests/legacy_grammar_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/core/grammar_repair_impl.h"
#include "src/core/retrieve_occs.h"
#include "src/datasets/generators.h"
#include "src/grammar/orders.h"
#include "src/grammar/text_format.h"
#include "src/grammar/validate.h"
#include "src/grammar/value.h"
#include "src/repair/tree_repair.h"
#include "src/tree/tree_hash.h"
#include "src/tree/tree_io.h"
#include "src/update/update_ops.h"
#include "src/workload/update_workload.h"
#include "src/xml/binary_encoding.h"
#include "src/xml/xml_parser.h"

namespace slg {
namespace {

// ---------------------------------------------------------------------
// Bucketed vs legacy index: byte-identical grammars through the full
// GrammarRePair driver, fresh compression and post-update
// recompression alike.

Grammar CompressedCorpus(Corpus c, double scale, LabelTable* labels_out) {
  XmlTree xml = GenerateCorpus(c, scale);
  LabelTable labels;
  Tree bin = EncodeBinary(xml, &labels);
  if (labels_out != nullptr) *labels_out = labels;
  return Grammar::ForTree(std::move(bin), labels);
}

class GrammarIndexCrossCheckTest : public ::testing::TestWithParam<Corpus> {};

TEST_P(GrammarIndexCrossCheckTest, IdenticalGrammarsFreshCompression) {
  for (CountingMode mode :
       {CountingMode::kIncremental, CountingMode::kRecount}) {
    GrammarRepairOptions opts;
    opts.counting = mode;
    Grammar g = CompressedCorpus(GetParam(), 0.02, nullptr);
    GrammarRepairResult bucket =
        internal::GrammarRePairWithIndex<GrammarDigramIndex>(g.Clone(), opts);
    GrammarRepairResult legacy =
        internal::GrammarRePairWithIndex<LegacyGrammarDigramIndex>(
            std::move(g), opts);
    EXPECT_EQ(bucket.rounds, legacy.rounds);
    EXPECT_EQ(bucket.replacements, legacy.replacements);
    EXPECT_EQ(FormatGrammar(bucket.grammar), FormatGrammar(legacy.grammar))
        << "grammars diverge on corpus " << InfoFor(GetParam()).name
        << " in counting mode " << (mode == CountingMode::kRecount ? "recount"
                                                                   : "incremental");
  }
}

TEST_P(GrammarIndexCrossCheckTest, IdenticalGrammarsAfterUpdates) {
  // The recompression leg the batched engine exercises: compress,
  // damage the grammar with a workload, recompress with both indexes.
  LabelTable labels;
  Grammar flat = CompressedCorpus(GetParam(), 0.02, &labels);
  Tree final_tree(flat.rhs(flat.start()));
  WorkloadOptions wopts;
  wopts.num_ops = 40;
  wopts.seed = 13;
  UpdateWorkload w = MakeUpdateWorkload(final_tree, labels, wopts);

  GrammarRepairOptions ropts;
  ropts.repair.require_positive_savings = true;
  Grammar g = GrammarRePair(Grammar::ForTree(Tree(w.seed), labels), ropts)
                  .grammar;
  BatchUpdater batch(&g);
  for (const UpdateOp& op : w.ops) {
    ASSERT_TRUE(batch.Apply(op).ok());
  }
  batch.Finish();

  GrammarRepairResult bucket =
      internal::GrammarRePairWithIndex<GrammarDigramIndex>(g.Clone(), ropts);
  GrammarRepairResult legacy =
      internal::GrammarRePairWithIndex<LegacyGrammarDigramIndex>(std::move(g),
                                                                 ropts);
  EXPECT_EQ(FormatGrammar(bucket.grammar), FormatGrammar(legacy.grammar))
      << "post-update grammars diverge on corpus "
      << InfoFor(GetParam()).name;
  EXPECT_TRUE(TreeEquals(Value(bucket.grammar).take(), final_tree));
}

INSTANTIATE_TEST_SUITE_P(Corpora, GrammarIndexCrossCheckTest,
                         ::testing::Values(Corpus::kExiWeblog, Corpus::kXMark,
                                           Corpus::kMedline, Corpus::kNcbi));

// ---------------------------------------------------------------------
// Batch vs sequential equivalence.

struct BatchCase {
  Corpus corpus;
  uint64_t seed;
  int ops;
};

class BatchEquivalenceTest : public ::testing::TestWithParam<BatchCase> {};

TEST_P(BatchEquivalenceTest, BatchMatchesSequential) {
  const BatchCase& c = GetParam();
  LabelTable labels;
  XmlTree xml = GenerateCorpus(c.corpus, 0.015);
  Tree final_tree = EncodeBinary(xml, &labels);
  WorkloadOptions wopts;
  wopts.num_ops = c.ops;
  wopts.seed = c.seed;
  // Mixed sequence: renames ride along with the inserts and deletes,
  // so the equivalence covers BatchUpdater::Rename too.
  wopts.rename_fraction = 0.2;
  UpdateWorkload w = MakeUpdateWorkload(final_tree, labels, wopts);

  Grammar seq = TreeRePair(Tree(w.seed), labels, {}).grammar;
  Grammar bat = seq.Clone();

  // Sequential: one isolate + edit (+ GC on delete) per operation.
  for (const UpdateOp& op : w.ops) {
    Status st = ApplyOpToGrammar(&seq, op);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  // Batched: one shared snapshot, one GC at the end.
  BatchUpdater batch(&bat);
  for (const UpdateOp& op : w.ops) {
    Status st = batch.Apply(op);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  batch.Finish();

  // Sequential ops only garbage-collect on deletes, so rules stranded
  // by isolation since the last delete are still present; level the
  // GC timing before comparing (it is the only difference batching
  // introduces).
  CollectGarbageRules(&seq);

  ASSERT_TRUE(Validate(bat).ok());
  // Batching only amortizes snapshot reuse and GC timing: the edit
  // sequence is identical, so the grammars are identical — not merely
  // equal-valued.
  EXPECT_EQ(FormatGrammar(bat), FormatGrammar(seq));
  Tree bat_tree = Value(bat).take();
  EXPECT_TRUE(TreeEquals(bat_tree, Value(seq).take()));
  EXPECT_TRUE(TreeEquals(bat_tree, final_tree));
}

INSTANTIATE_TEST_SUITE_P(
    Random, BatchEquivalenceTest,
    ::testing::Values(BatchCase{Corpus::kExiTelecomp, 3, 80},
                      BatchCase{Corpus::kMedline, 5, 120},
                      BatchCase{Corpus::kXMark, 7, 60}));

TEST(BatchUpdaterTest, RenameBatchMatchesSequential) {
  LabelTable labels;
  XmlTree xml = GenerateCorpus(Corpus::kMedline, 0.015);
  Tree bin = EncodeBinary(xml, &labels);
  Tree full(bin);
  Grammar seq = TreeRePair(std::move(bin), labels, {}).grammar;
  Grammar bat = seq.Clone();

  std::vector<RenameOp> ops = MakeRenameWorkload(full, labels, 40, 17);
  for (const RenameOp& op : ops) {
    ASSERT_TRUE(RenameNode(&seq, op.preorder, op.label).ok());
  }
  BatchUpdater batch(&bat);
  for (const RenameOp& op : ops) {
    ASSERT_TRUE(batch.Rename(op.preorder, op.label).ok());
  }
  batch.Finish();
  // RenameNode never garbage-collects; Finish() does. Level that
  // before comparing (see BatchMatchesSequential).
  CollectGarbageRules(&seq);
  ASSERT_TRUE(Validate(bat).ok());
  EXPECT_EQ(FormatGrammar(bat), FormatGrammar(seq));
}

TEST(BatchUpdaterTest, FreshTagsThenEditsAfterThem) {
  // Labels interned after the batch built its summary are terminals it
  // has never seen: a rename to a new tag, an insert whose fragment is
  // encoded mid-batch with more new tags, a rename inside that
  // fragment and a delete must isolate and size exactly as applying
  // the operations one at a time does. Each edit sits after the
  // previous ones' positions or before every shift they cause, so the
  // positions hold on both sides.
  LabelTable labels;
  Tree bin = EncodeBinary(GenerateCorpus(Corpus::kMedline, 0.015), &labels);
  Grammar seq = TreeRePair(std::move(bin), labels, {}).grammar;
  Grammar bat = seq.Clone();
  std::vector<int64_t> elems;
  {
    Tree full = Value(seq).take();
    int64_t pos = 0;
    full.VisitPreorder(full.root(), [&](NodeId v) {
      ++pos;
      if (full.label(v) != kNullLabel) elems.push_back(pos);
    });
  }
  ASSERT_GE(elems.size(), 10u);
  const int64_t e1 = elems[elems.size() / 5];
  const int64_t e2 = elems[2 * elems.size() / 5];
  const int64_t e3 = elems[3 * elems.size() / 5];
  XmlTree frag_xml = ParseXml("<fresh-b><fresh-c/></fresh-b>").take();

  ASSERT_TRUE(RenameNode(&seq, e1, "fresh-a").ok());
  Tree seq_frag = EncodeFragment(frag_xml, &seq).take();
  ASSERT_TRUE(InsertTreeBefore(&seq, e3, seq_frag).ok());
  ASSERT_TRUE(RenameNode(&seq, e3 + 1, "fresh-d").ok());  // fresh-c
  ASSERT_TRUE(DeleteSubtree(&seq, e2).ok());

  BatchUpdater batch(&bat);
  ASSERT_TRUE(batch.Rename(e1, "fresh-a").ok());
  Tree bat_frag = EncodeFragment(frag_xml, &bat).take();
  ASSERT_TRUE(batch.InsertBefore(e3, bat_frag).ok());
  ASSERT_TRUE(batch.Rename(e3 + 1, "fresh-d").ok());
  ASSERT_TRUE(batch.Delete(e2).ok());
  batch.Finish();

  CollectGarbageRules(&seq);  // see BatchMatchesSequential
  ASSERT_TRUE(Validate(bat).ok());
  EXPECT_EQ(FormatGrammar(bat), FormatGrammar(seq));
  Tree bat_tree = Value(bat).take();
  EXPECT_TRUE(TreeEquals(bat_tree, Value(seq).take()));
  EXPECT_EQ(bat.labels().Name(bat_tree.label(bat_tree.AtPreorderIndex(e1))),
            "fresh-a");
}

TEST(BatchUpdaterTest, ApplyWorkloadBatchedRecompresses) {
  LabelTable labels;
  XmlTree xml = GenerateCorpus(Corpus::kExiTelecomp, 0.015);
  Tree final_tree = EncodeBinary(xml, &labels);
  WorkloadOptions wopts;
  wopts.num_ops = 60;
  wopts.seed = 23;
  UpdateWorkload w = MakeUpdateWorkload(final_tree, labels, wopts);

  Grammar g = TreeRePair(Tree(w.seed), labels, {}).grammar;
  BatchApplyOptions opts;
  opts.repair.repair.require_positive_savings = true;
  auto result = ApplyWorkloadBatched(std::move(g), w.ops, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(Validate(result.value().grammar).ok());
  EXPECT_TRUE(TreeEquals(Value(result.value().grammar).take(), final_tree));
}

TEST(BatchUpdaterTest, ErrorsMatchAtomicOps) {
  LabelTable labels;
  Tree bin = EncodeBinary(GenerateCorpus(Corpus::kExiWeblog, 0.01), &labels);
  Grammar g = TreeRePair(std::move(bin), labels, {}).grammar;
  int64_t n = ValueNodeCount(g);
  BatchUpdater batch(&g);
  EXPECT_FALSE(batch.Rename(0, "zz").ok());
  EXPECT_FALSE(batch.Rename(n + 1, "zz").ok());
  EXPECT_FALSE(batch.Rename(1, "~").ok());
  EXPECT_FALSE(batch.Delete(n + 5).ok());  // out of range
  EXPECT_FALSE(batch.InsertBefore(1, Tree()).ok());
  Tree bad = ParseTerm("w(~,v(~,q))", &g.labels()).take();
  EXPECT_FALSE(batch.InsertBefore(1, bad).ok());
  // The batch stays usable after rejected operations.
  Tree good = ParseTerm("w(v(~,~),~)", &g.labels()).take();
  EXPECT_TRUE(batch.InsertBefore(1, good).ok());
  batch.Finish();
  EXPECT_TRUE(Validate(g).ok());
}

// ---------------------------------------------------------------------
// CollectGarbageRules: the worklist must reach the old fixpoint.

TEST(CollectGarbageRulesTest, CascadesThroughDeadChains) {
  // A and B are only reachable through each other / dead rules; C is
  // kept alive by S. The cascade must remove A then B but keep C.
  auto g_or = GrammarFromRules({
      "S -> f(C,a)",
      "C -> g(a,b)",
      "A -> h(B,C)",
      "B -> g(b,b)",
  });
  ASSERT_TRUE(g_or.ok());
  Grammar g = g_or.take();
  EXPECT_EQ(CollectGarbageRules(&g), 2);
  EXPECT_FALSE(g.HasRule(g.labels().Find("A")));
  EXPECT_FALSE(g.HasRule(g.labels().Find("B")));
  EXPECT_TRUE(g.HasRule(g.labels().Find("C")));
  EXPECT_TRUE(g.HasRule(g.start()));
  // Idempotent on a clean grammar.
  EXPECT_EQ(CollectGarbageRules(&g), 0);
}

TEST(CollectGarbageRulesTest, MatchesRecomputeFixpointOnWorkload) {
  // Reference: the old recompute-all-refcounts loop.
  auto reference_gc = [](Grammar* g) {
    int removed = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      auto refs = ComputeRefCounts(*g);
      for (LabelId r : g->Nonterminals()) {
        if (r != g->start() && refs[r] == 0) {
          g->RemoveRule(r);
          ++removed;
          changed = true;
        }
      }
    }
    return removed;
  };

  LabelTable labels;
  Tree final_tree = EncodeBinary(GenerateCorpus(Corpus::kMedline, 0.01),
                                 &labels);
  WorkloadOptions wopts;
  wopts.num_ops = 60;
  wopts.seed = 31;
  UpdateWorkload w = MakeUpdateWorkload(final_tree, labels, wopts);

  Grammar a = TreeRePair(Tree(w.seed), labels, {}).grammar;
  Grammar b = a.Clone();
  {
    // Strand rules without intermediate GC.
    BatchUpdater batch_a(&a);
    BatchUpdater batch_b(&b);
    for (const UpdateOp& op : w.ops) {
      ASSERT_TRUE(batch_a.Apply(op).ok());
      ASSERT_TRUE(batch_b.Apply(op).ok());
    }
    // Finish() runs the worklist GC on a; run the reference on b.
    int removed_worklist = batch_a.Finish();
    int removed_reference = reference_gc(&b);
    EXPECT_EQ(removed_worklist, removed_reference);
  }
  EXPECT_EQ(FormatGrammar(a), FormatGrammar(b));
}

}  // namespace
}  // namespace slg
