// RuleSummary: the shared per-rule summary layer must compile every
// rule body into preorder positions that reproduce the rule tree
// (labels, kinds, subtree ends, child lists) and are sized by its live
// nodes, report exact sizes and element counts, parameter intervals
// matching the rule bodies, a label filter with no false negatives,
// and material piece tables that tile every segment and place the
// document's terminals at their true derived positions.

#include "src/grammar/rule_summary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/core/grammar_repair.h"
#include "src/datasets/generators.h"
#include "src/grammar/rule_meta.h"
#include "src/grammar/text_format.h"
#include "src/grammar/value.h"
#include "src/xml/binary_encoding.h"
#include "tests/exponential_grammars.h"

namespace slg {
namespace {

Grammar CompressedCorpus(Corpus c, double scale = 0.01) {
  XmlTree xml = GenerateCorpus(c, scale);
  LabelTable labels;
  Tree bin = EncodeBinary(xml, &labels);
  return GrammarRePair(Grammar::ForTree(std::move(bin), labels), {}).grammar;
}

// Reference material label sets, computed by the recursive definition
// the filter approximates: terminals of the body (⊥ included) plus
// every callee's set.
std::map<LabelId, std::set<LabelId>> MaterialLabelSets(const Grammar& g,
                                                       const RuleMeta& meta) {
  std::map<LabelId, std::set<LabelId>> sets;
  std::function<const std::set<LabelId>&(LabelId)> of =
      [&](LabelId r) -> const std::set<LabelId>& {
    auto it = sets.find(r);
    if (it != sets.end()) return it->second;
    std::set<LabelId>& mine = sets[r];
    const Tree& t = meta.Rhs(r);
    for (NodeId v : t.Preorder()) {
      LabelId l = t.label(v);
      if (meta.IsNonterminal(l)) {
        const std::set<LabelId>& cs = of(l);
        mine.insert(cs.begin(), cs.end());
      } else if (meta.ParamIndex(l) == 0) {
        mine.insert(l);
      }
    }
    return mine;
  };
  g.ForEachRule([&](LabelId lhs, const Tree&) { of(lhs); });
  return sets;
}

void CheckSummary(const Grammar& g) {
  RuleMeta meta = RuleMeta::Build(g, /*with_sizes=*/true);
  RuleSummary sum = RuleSummary::Build(g, meta);

  // Document-level totals against the materialization.
  EXPECT_EQ(sum.DerivedSize(), ValueNodeCount(g));
  EXPECT_EQ(sum.DerivedElementCount(), ValueElementCount(g));
  EXPECT_EQ(sum.MaterialSize(g.start()), ValueNodeCount(g));
  EXPECT_EQ(sum.MaterialElements(g.start()), ValueElementCount(g));

  // The compiled body reproduces the rule tree position by position:
  // label and kind, subtree end, child list and parent, static size (agreeing
  // with the update path's NodeId-indexed sizing pass — one shared
  // definition, pinned here) and the parameters occurring below.
  using BodyNode = RuleSummary::BodyNode;
  g.ForEachRule([&](LabelId lhs, const Tree& t) {
    SCOPED_TRACE("rule " + g.labels().Name(lhs));
    std::vector<NodeId> order = t.Preorder();
    ASSERT_EQ(sum.BodySize(lhs), static_cast<int32_t>(order.size()));
    ASSERT_EQ(sum.BodySize(lhs), t.LiveCount());
    std::map<NodeId, int32_t> pos;
    for (size_t i = 0; i < order.size(); ++i) {
      pos[order[i]] = static_cast<int32_t>(i);
    }
    std::vector<int64_t> ref = ComputeStaticSizes(t, meta);
    const BodyNode* b = sum.Body(lhs);
    EXPECT_EQ(b[0].parent, -1);
    for (int32_t i = 0; i < sum.BodySize(lhs); ++i) {
      NodeId v = order[static_cast<size_t>(i)];
      LabelId l = t.label(v);
      EXPECT_EQ(b[i].label, l);
      int32_t kind = meta.ParamIndex(l) > 0 ? meta.ParamIndex(l)
                     : meta.IsNonterminal(l) ? RuleSummary::kCallKind
                                             : RuleSummary::kTerminalKind;
      EXPECT_EQ(b[i].kind, kind);
      EXPECT_EQ(b[i].end, i + t.SubtreeSize(v));
      std::vector<int32_t> kids;
      for (int32_t c = i + 1; c < b[i].end; c = b[c].end) kids.push_back(c);
      std::vector<int32_t> tree_kids;
      for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
        tree_kids.push_back(pos[c]);
      }
      EXPECT_EQ(kids, tree_kids);
      for (int32_t c : kids) EXPECT_EQ(b[c].parent, i);
      EXPECT_EQ(sum.StaticSize(lhs, i), ref[static_cast<size_t>(v)]);
      int32_t lo = RuleSummary::kNoParamBelow;
      int32_t hi = 0;
      t.VisitPreorder(v, [&](NodeId w) {
        if (int pj = meta.ParamIndex(t.label(w)); pj > 0) {
          lo = std::min(lo, pj);
          hi = std::max(hi, pj);
        }
      });
      EXPECT_EQ(sum.ParamLo(lhs, i), lo);
      EXPECT_EQ(sum.ParamHi(lhs, i), hi);
    }
  });

  // Filter: no false negatives against the recursive definition.
  std::map<LabelId, std::set<LabelId>> sets = MaterialLabelSets(g, meta);
  for (const auto& [rule, labels] : sets) {
    for (LabelId l : labels) {
      EXPECT_TRUE(sum.MayContain(rule, l))
          << "rule " << rule << " label " << g.labels().Name(l);
    }
  }

  // Piece tables: each segment's pieces start where the previous one
  // ended, a call piece spans its callee segment, and the segments add
  // up to the rule's segment sizes and material size.
  g.ForEachRule([&](LabelId lhs, const Tree&) {
    int64_t at = 0;
    for (int j = 0; j <= meta.Rank(lhs); ++j) {
      int32_t slot = sum.SegSlot(lhs, j);
      int64_t seg_start = at;
      for (const RuleSummary::Piece* p = sum.SlotBegin(slot);
           p != sum.SlotEnd(slot); ++p) {
        EXPECT_EQ(p->start, at) << "rule " << lhs << " segment " << j;
        int64_t size = 1;
        if (p->slot != RuleSummary::kTerminal) {
          int callee_seg = p->slot - sum.SegSlot(p->label, 0);
          ASSERT_GE(callee_seg, 0);
          ASSERT_LE(callee_seg, meta.Rank(p->label));
          size = meta.SegSize(p->label, callee_seg);
          EXPECT_GT(size, 0);  // empty segments get no piece
        }
        at = SizeSatAdd(at, size);
      }
      EXPECT_EQ(at - seg_start, meta.SegSize(lhs, j));
    }
    EXPECT_EQ(at, sum.MaterialSize(lhs));
  });

  // The start rule's terminal pieces sit at their materialized
  // positions, and per-slot counts match the materialized tree.
  Tree full = Value(g).take();
  std::vector<LabelId> pre;
  std::map<LabelId, int64_t> occurrences;
  full.VisitPreorder(full.root(), [&](NodeId v) {
    pre.push_back(full.label(v));
    ++occurrences[full.label(v)];
  });
  int32_t start_slot = sum.SegSlot(g.start(), 0);
  for (const RuleSummary::Piece* p = sum.SlotBegin(start_slot);
       p != sum.SlotEnd(start_slot); ++p) {
    if (p->slot != RuleSummary::kTerminal) continue;
    ASSERT_LT(p->start, static_cast<int64_t>(pre.size()));
    EXPECT_EQ(p->label, pre[static_cast<size_t>(p->start)]);
  }
  for (const auto& [label, n] : occurrences) {
    EXPECT_EQ(sum.CountPerSlot(label)[static_cast<size_t>(start_slot)], n)
        << g.labels().Name(label);
  }
  EXPECT_EQ(sum.CountPerSlot(kNoLabel)[static_cast<size_t>(start_slot)], 0);
}

class RuleSummaryCorpusTest : public ::testing::TestWithParam<Corpus> {};

TEST_P(RuleSummaryCorpusTest, ExactOnCompressedCorpus) {
  CheckSummary(CompressedCorpus(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    All, RuleSummaryCorpusTest,
    ::testing::Values(Corpus::kExiWeblog, Corpus::kXMark,
                      Corpus::kExiTelecomp, Corpus::kTreebank,
                      Corpus::kMedline, Corpus::kNcbi),
    [](const ::testing::TestParamInfo<Corpus>& info) {
      std::string n = InfoFor(info.param).name;
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST(RuleSummaryTest, ExponentialGrammars) {
  CheckSummary(DoublingGrammar(8));
  CheckSummary(ParameterizedSiblingGrammar());
  CheckSummary(ParameterizedChainGrammar(7));
}

TEST(RuleSummaryTest, ParameterIntervals) {
  // A -> g($1,h($2,c)): the interval under a position is exactly the
  // parameters occurring below it. Preorder positions: g 0, $1 1,
  // h 2, $2 3, c 4.
  Grammar g = ParameterizedSiblingGrammar();
  RuleMeta meta = RuleMeta::Build(g, /*with_sizes=*/true);
  RuleSummary sum = RuleSummary::Build(g, meta);
  LabelId a = g.labels().Find("A");
  ASSERT_NE(a, kNoLabel);
  ASSERT_EQ(sum.BodySize(a), 5);
  const int32_t root = 0, y1 = 1, h = 2, y2 = 3, c = 4;
  EXPECT_EQ(sum.Body(a)[y1].kind, 1);
  EXPECT_EQ(sum.Body(a)[y2].kind, 2);
  EXPECT_EQ(sum.Body(a)[h].end, 5);
  EXPECT_EQ(sum.ParamLo(a, root), 1);
  EXPECT_EQ(sum.ParamHi(a, root), 2);
  EXPECT_EQ(sum.ParamLo(a, y1), 1);
  EXPECT_EQ(sum.ParamHi(a, y1), 1);
  EXPECT_EQ(sum.ParamLo(a, h), 2);
  EXPECT_EQ(sum.ParamHi(a, h), 2);
  EXPECT_EQ(sum.ParamLo(a, y2), 2);
  EXPECT_EQ(sum.ParamHi(a, y2), 2);
  EXPECT_GT(sum.ParamLo(a, c), sum.ParamHi(a, c));  // none below

  // DerivedIn with explicit argument sizes: val(A(x,y)) has 3 material
  // nodes (g, h, c) plus the two argument sizes.
  std::vector<int64_t> prefix = {0, 5, 5 + 3};  // |arg1| = 5, |arg2| = 3
  EXPECT_EQ(sum.DerivedIn(a, root, prefix.data()), 3 + 5 + 3);
  EXPECT_EQ(sum.DerivedIn(a, h, prefix.data()), 2 + 3);
}

TEST(RuleSummaryTest, BodiesAreSizedByLiveNodes) {
  // Repairing a sequentially ingested document replaces digrams in
  // place, so the start rule's arena keeps the whole document's id
  // space while only a small fraction of it stays live. The compiled
  // bodies hold live nodes only.
  Grammar g = CompressedCorpus(Corpus::kMedline, 0.05);
  const Tree& t = g.rhs(g.start());
  NodeId max_id = 0;
  t.VisitPreorder(t.root(), [&](NodeId v) { max_id = std::max(max_id, v); });
  const int64_t id_space = int64_t{max_id} + 1;
  ASSERT_GE(id_space, 10 * int64_t{t.LiveCount()})
      << "id space " << id_space << ", live " << t.LiveCount();
  RuleMeta meta = RuleMeta::Build(g, /*with_sizes=*/true);
  RuleSummary sum = RuleSummary::Build(g, meta);
  g.ForEachRule([&](LabelId lhs, const Tree& rhs) {
    EXPECT_EQ(sum.BodySize(lhs), rhs.LiveCount());
  });
  EXPECT_EQ(sum.DerivedSize(), ValueNodeCount(g));
  CheckSummary(g);
}

TEST(RuleSummaryTest, SaturatedPieceStarts) {
  // Three calls whose segments each hold 2^80 - 1 nodes: past the cap
  // every piece start reads kSizeCap, so starts stay ascending (the
  // binary search's precondition) instead of overflowing.
  std::vector<std::string> rules = {"S -> f(A1,f(A1,f(A1,a)))"};
  for (int i = 1; i < 80; ++i) {
    rules.push_back("A" + std::to_string(i) + " -> f(A" +
                    std::to_string(i + 1) + ",A" + std::to_string(i + 1) + ")");
  }
  rules.push_back("A80 -> a");
  Grammar g = GrammarFromRules(rules).take();
  RuleMeta meta = RuleMeta::Build(g, /*with_sizes=*/true);
  RuleSummary sum = RuleSummary::Build(g, meta);
  std::vector<int64_t> starts;
  int32_t slot = sum.SegSlot(g.start(), 0);
  for (const RuleSummary::Piece* p = sum.SlotBegin(slot);
       p != sum.SlotEnd(slot); ++p) {
    starts.push_back(p->start);
  }
  EXPECT_EQ(starts, (std::vector<int64_t>{0, 1, kSizeCap, kSizeCap, kSizeCap,
                                          kSizeCap, kSizeCap}));
}

TEST(RuleSummaryTest, PieceTable) {
  // S -> f(A(a,b),A(b,a)), A -> g($1,h($2,c)). val(A) in preorder is
  // g $1 h $2 c: segment 0 = [g], 1 = [h], 2 = [c]. S's walk
  // interleaves A's segments with the call arguments.
  Grammar g = ParameterizedSiblingGrammar();
  RuleMeta meta = RuleMeta::Build(g, /*with_sizes=*/true);
  RuleSummary sum = RuleSummary::Build(g, meta);
  LabelId a = g.labels().Find("A");
  auto pieces = [&](LabelId rule, int j) {
    std::vector<std::string> out;
    int32_t slot = sum.SegSlot(rule, j);
    for (const RuleSummary::Piece* p = sum.SlotBegin(slot);
         p != sum.SlotEnd(slot); ++p) {
      std::string s = std::to_string(p->start) + ":" +
                      std::string(g.labels().Name(p->label));
      if (p->slot != RuleSummary::kTerminal) {
        s += "." + std::to_string(p->slot - sum.SegSlot(p->label, 0));
      }
      out.push_back(s);
    }
    return out;
  };
  using V = std::vector<std::string>;
  EXPECT_EQ(pieces(a, 0), (V{"0:g"}));
  EXPECT_EQ(pieces(a, 1), (V{"1:h"}));
  EXPECT_EQ(pieces(a, 2), (V{"2:c"}));
  EXPECT_EQ(pieces(g.start(), 0),
            (V{"0:f", "1:A.0", "2:a", "3:A.1", "4:b", "5:A.2", "6:A.0", "7:b",
               "8:A.1", "9:a", "10:A.2"}));
  // Callees' slots precede their callers'.
  EXPECT_LT(sum.SegSlot(a, 2), sum.SegSlot(g.start(), 0));
  std::vector<int64_t> count = sum.CountPerSlot(g.labels().Find("c"));
  EXPECT_EQ(count[static_cast<size_t>(sum.SegSlot(a, 1))], 0);
  EXPECT_EQ(count[static_cast<size_t>(sum.SegSlot(a, 2))], 1);
  EXPECT_EQ(count[static_cast<size_t>(sum.SegSlot(g.start(), 0))], 2);
}

}  // namespace
}  // namespace slg
