// RuleSummary: the per-rule record must compile every rule body into
// preorder positions that reproduce the rule tree (labels, kinds,
// subtree ends, child lists, parameter positions) and are sized by its
// live nodes, report exact sizes and element counts, parameter
// intervals matching the rule bodies, a label filter with no false
// negatives, and segment sizes and material piece tables that agree
// with each rule materialized under marker arguments.

#include "src/grammar/rule_summary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/core/grammar_repair.h"
#include "src/datasets/generators.h"
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

// What val(rule) looks like with distinct marker arguments: the rule
// instantiated as rule(#1, ..., #m) on a copy of the grammar,
// materialized, and walked in preorder. The nodes between markers are
// the rule's material segments.
struct Materialized {
  std::vector<int64_t> seg_sizes;  // nodes before #1, between, after #m
  std::vector<LabelId> material;   // material labels in derived preorder
};

std::map<LabelId, Materialized> MaterializeRules(const Grammar& g) {
  Grammar h = g.Clone();
  std::map<LabelId, int> marker_index;
  std::vector<LabelId> markers;
  g.ForEachRule([&](LabelId lhs, const Tree&) {
    while (static_cast<int>(markers.size()) < g.labels().Rank(lhs)) {
      int j = static_cast<int>(markers.size()) + 1;
      markers.push_back(h.labels().Intern("#" + std::to_string(j), 0));
      marker_index[markers.back()] = j;
    }
  });
  std::map<LabelId, Materialized> out;
  g.ForEachRule([&](LabelId lhs, const Tree&) {
    const int rank = g.labels().Rank(lhs);
    Tree call;
    NodeId root = call.NewNode(lhs);
    call.SetRoot(root);
    for (int j = 0; j < rank; ++j) {
      call.AppendChild(root, call.NewNode(markers[static_cast<size_t>(j)]));
    }
    LabelId inst = h.labels().Intern("#inst" + std::to_string(lhs), 0);
    h.AddRule(inst, std::move(call));
    Tree v = ValueOf(h, inst).take();
    Materialized& m = out[lhs];
    m.seg_sizes.assign(static_cast<size_t>(rank) + 1, 0);
    int cur = 0;
    v.VisitPreorder(v.root(), [&](NodeId x) {
      auto it = marker_index.find(v.label(x));
      if (it != marker_index.end()) {
        EXPECT_EQ(it->second, cur + 1) << "markers out of order";
        cur = it->second;
        return;
      }
      ++m.seg_sizes[static_cast<size_t>(cur)];
      m.material.push_back(v.label(x));
    });
    EXPECT_EQ(cur, rank);
  });
  return out;
}

void CheckSummary(const Grammar& g) {
  RuleSummary sum = RuleSummary::Build(g);
  const LabelTable& labels = g.labels();
  const std::map<LabelId, Materialized> ref = MaterializeRules(g);

  // Document-level totals against the materialization.
  EXPECT_EQ(sum.DerivedSize(), ValueNodeCount(g));
  EXPECT_EQ(sum.DerivedElementCount(), ValueElementCount(g));
  EXPECT_EQ(sum.MaterialSize(g.start()), ValueNodeCount(g));
  EXPECT_EQ(sum.MaterialElements(g.start()), ValueElementCount(g));

  // Segment sizes, material sizes and label filters against the
  // materialized rules.
  g.ForEachRule([&](LabelId lhs, const Tree&) {
    SCOPED_TRACE("rule " + labels.Name(lhs));
    const Materialized& m = ref.at(lhs);
    for (int j = 0; j <= labels.Rank(lhs); ++j) {
      EXPECT_EQ(sum.SegSize(lhs, j), m.seg_sizes[static_cast<size_t>(j)])
          << "segment " << j;
    }
    EXPECT_EQ(sum.MaterialSize(lhs), static_cast<int64_t>(m.material.size()));
    EXPECT_EQ(sum.MaterialElements(lhs),
              static_cast<int64_t>(m.material.size()) -
                  std::count(m.material.begin(), m.material.end(),
                             kNullLabel));
    for (LabelId l : m.material) {
      EXPECT_TRUE(sum.MayContain(lhs, l)) << labels.Name(l);
    }
  });

  // The compiled body reproduces the rule tree position by position:
  // label and kind, subtree end, child list and parent, the parameters
  // occurring below, and the static size — the subtree's nodes, a call
  // counting its callee's materialized material.
  using BodyNode = RuleSummary::BodyNode;
  g.ForEachRule([&](LabelId lhs, const Tree& t) {
    SCOPED_TRACE("rule " + labels.Name(lhs));
    std::vector<NodeId> order = t.Preorder();
    ASSERT_EQ(sum.BodySize(lhs), static_cast<int32_t>(order.size()));
    ASSERT_EQ(sum.BodySize(lhs), t.LiveCount());
    std::map<NodeId, int32_t> pos;
    for (size_t i = 0; i < order.size(); ++i) {
      pos[order[i]] = static_cast<int32_t>(i);
    }
    auto own_size = [&](LabelId l) -> int64_t {
      if (g.HasRule(l)) return static_cast<int64_t>(ref.at(l).material.size());
      return labels.IsParam(l) ? 0 : 1;
    };
    const BodyNode* b = sum.Body(lhs);
    EXPECT_EQ(b[0].parent, -1);
    for (int32_t i = 0; i < sum.BodySize(lhs); ++i) {
      NodeId v = order[static_cast<size_t>(i)];
      LabelId l = t.label(v);
      EXPECT_EQ(b[i].label, l);
      int32_t kind = labels.ParamIndex(l) > 0 ? labels.ParamIndex(l)
                     : g.HasRule(l)           ? RuleSummary::kCallKind
                                              : RuleSummary::kTerminalKind;
      EXPECT_EQ(b[i].kind, kind);
      if (kind > 0) {
        EXPECT_EQ(sum.ParamPos(lhs, kind), i);
      }
      EXPECT_EQ(b[i].end, i + t.SubtreeSize(v));
      std::vector<int32_t> kids;
      for (int32_t c = i + 1; c < b[i].end; c = b[c].end) kids.push_back(c);
      std::vector<int32_t> tree_kids;
      for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
        tree_kids.push_back(pos[c]);
      }
      EXPECT_EQ(kids, tree_kids);
      for (int32_t c : kids) EXPECT_EQ(b[c].parent, i);
      int64_t size = 0;
      int32_t lo = RuleSummary::kNoParamBelow;
      int32_t hi = 0;
      t.VisitPreorder(v, [&](NodeId w) {
        size += own_size(t.label(w));
        if (int pj = labels.ParamIndex(t.label(w)); pj > 0) {
          lo = std::min(lo, pj);
          hi = std::max(hi, pj);
        }
      });
      EXPECT_EQ(sum.StaticSize(lhs, i), size);
      EXPECT_EQ(sum.ParamLo(lhs, i), lo);
      EXPECT_EQ(sum.ParamHi(lhs, i), hi);
    }
  });

  // Piece tables against the materialized rules: each segment's pieces
  // start where the previous one ended, a terminal piece holds the
  // materialized label at its start, and a call piece spans exactly
  // the materialized nodes of its callee segment.
  g.ForEachRule([&](LabelId lhs, const Tree&) {
    SCOPED_TRACE("rule " + labels.Name(lhs));
    const std::vector<LabelId>& mine = ref.at(lhs).material;
    int64_t at = 0;
    for (int j = 0; j <= labels.Rank(lhs); ++j) {
      int32_t slot = sum.SegSlot(lhs, j);
      int64_t seg_start = at;
      for (const RuleSummary::Piece* p = sum.SlotBegin(slot);
           p != sum.SlotEnd(slot); ++p) {
        EXPECT_EQ(p->start, at) << "segment " << j;
        ASSERT_LT(at, static_cast<int64_t>(mine.size()));
        if (p->slot == RuleSummary::kTerminal) {
          EXPECT_EQ(p->label, mine[static_cast<size_t>(at)]);
          ++at;
          continue;
        }
        int callee_seg = p->slot - sum.SegSlot(p->label, 0);
        ASSERT_GE(callee_seg, 0);
        ASSERT_LE(callee_seg, labels.Rank(p->label));
        const Materialized& callee = ref.at(p->label);
        int64_t from = 0;
        for (int k = 0; k < callee_seg; ++k) {
          from += callee.seg_sizes[static_cast<size_t>(k)];
        }
        int64_t size = callee.seg_sizes[static_cast<size_t>(callee_seg)];
        EXPECT_GT(size, 0);  // empty segments get no piece
        ASSERT_LE(at + size, static_cast<int64_t>(mine.size()));
        EXPECT_TRUE(std::equal(mine.begin() + at, mine.begin() + at + size,
                               callee.material.begin() + from));
        at += size;
      }
      EXPECT_EQ(at - seg_start, ref.at(lhs).seg_sizes[static_cast<size_t>(j)])
          << "segment " << j;
    }
    EXPECT_EQ(at, static_cast<int64_t>(mine.size()));
  });

  // Per-slot counts of the start rule match the materialized tree.
  Tree full = Value(g).take();
  std::map<LabelId, int64_t> occurrences;
  full.VisitPreorder(full.root(),
                     [&](NodeId v) { ++occurrences[full.label(v)]; });
  int32_t start_slot = sum.SegSlot(g.start(), 0);
  for (const auto& [label, n] : occurrences) {
    EXPECT_EQ(sum.CountPerSlot(label)[static_cast<size_t>(start_slot)], n)
        << labels.Name(label);
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
  RuleSummary sum = RuleSummary::Build(g);
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
  RuleSummary sum = RuleSummary::Build(g);
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
  RuleSummary sum = RuleSummary::Build(g);
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
  RuleSummary sum = RuleSummary::Build(g);
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
