// GrammarCursor: navigation over val(G) without decompression must
// agree with navigation over the decompressed tree, on compressed
// grammars of every corpus shape and on exponential grammars — a full
// preorder walk, and seeded random sequences of every move.

#include "src/core/cursor.h"

#include <gtest/gtest.h>

#include <string>

#include "src/common/rng.h"
#include "src/core/grammar_repair.h"
#include "src/datasets/generators.h"
#include "src/grammar/text_format.h"
#include "src/grammar/value.h"
#include "src/repair/tree_repair.h"
#include "src/xml/binary_encoding.h"
#include "tests/exponential_grammars.h"

namespace slg {
namespace {

Grammar CompressedCorpus(Corpus c) {
  XmlTree xml = GenerateCorpus(c, 0.01);
  LabelTable labels;
  Tree bin = EncodeBinary(xml, &labels);
  return GrammarRePair(Grammar::ForTree(std::move(bin), labels), {}).grammar;
}

TEST(CursorTest, RootAndBasicMoves) {
  Grammar g = GrammarFromRules({
      "S -> f(A,A)",
      "A -> a(b,c)",
  }).take();
  GrammarCursor cur(&g);
  EXPECT_TRUE(cur.AtRoot());
  EXPECT_EQ(cur.LabelName(), "f");
  EXPECT_EQ(cur.NumChildren(), 2);
  ASSERT_TRUE(cur.Down(1));
  EXPECT_EQ(cur.LabelName(), "a");  // through the A call
  EXPECT_EQ(cur.Depth(), 1);
  ASSERT_TRUE(cur.Down(2));
  EXPECT_EQ(cur.LabelName(), "c");
  EXPECT_FALSE(cur.Down(1));  // leaf
  ASSERT_TRUE(cur.Left());
  EXPECT_EQ(cur.LabelName(), "b");
  EXPECT_FALSE(cur.Left());
  ASSERT_TRUE(cur.Right());
  EXPECT_EQ(cur.LabelName(), "c");
  EXPECT_FALSE(cur.Right());
  ASSERT_TRUE(cur.Up());
  EXPECT_EQ(cur.LabelName(), "a");
  ASSERT_TRUE(cur.Right());   // second A expansion
  EXPECT_EQ(cur.LabelName(), "a");
  ASSERT_TRUE(cur.Up());
  EXPECT_TRUE(cur.AtRoot());
  EXPECT_FALSE(cur.Up());
}

// Full preorder walk via the cursor must equal the decompressed tree's
// preorder label sequence.
void WalkAndCompare(const Grammar& g) {
  Tree full = Value(g).take();
  std::vector<LabelId> expect;
  full.VisitPreorder(full.root(), [&](NodeId v) {
    expect.push_back(full.label(v));
  });

  std::vector<LabelId> got;
  GrammarCursor cur(&g);
  // Iterative preorder using Down/Right/Up only.
  for (;;) {
    got.push_back(cur.Label());
    if (cur.Down(1)) continue;
    for (;;) {
      if (cur.Right()) break;
      if (!cur.Up()) {
        ASSERT_EQ(got.size(), expect.size());
        for (size_t i = 0; i < expect.size(); ++i) {
          ASSERT_EQ(got[i], expect[i]) << "at preorder " << i;
        }
        return;
      }
    }
  }
}

class CursorCorpusTest : public ::testing::TestWithParam<Corpus> {};

TEST_P(CursorCorpusTest, PreorderMatchesDecompressed) {
  WalkAndCompare(CompressedCorpus(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    All, CursorCorpusTest,
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

// The reference for the differential test: the same moves on the
// decompressed tree, by parent/child/sibling links.
struct TreeCursor {
  const Tree& t;
  NodeId v;
  int depth = 0;

  bool MoveTo(NodeId to, int d) {
    if (to == kNilNode) return false;
    v = to;
    depth += d;
    return true;
  }
  bool Down(int i) { return MoveTo(t.Child(v, i), 1); }
  bool Up() { return MoveTo(t.parent(v), -1); }
  bool Right() {
    return t.parent(v) != kNilNode && MoveTo(t.next_sibling(v), 0);
  }
  bool Left() {
    return t.parent(v) != kNilNode && MoveTo(t.prev_sibling(v), 0);
  }
  bool ChildElement(int i) {
    NodeId c = t.Child(v, i);
    return c != kNilNode && t.label(c) != kNullLabel && MoveTo(c, 1);
  }
  bool ParentElement() {
    // Up through next-sibling (index 2) edges to the first index-1
    // edge; nothing moves when there is none.
    int up = 0;
    for (NodeId u = v; t.parent(u) != kNilNode; u = t.parent(u)) {
      ++up;
      if (t.ChildIndex(u) == 1) return MoveTo(t.parent(u), -up);
    }
    return false;
  }
};

// Seeded random move sequences, run on the cursor and on the
// decompressed tree side by side; after every move the return value,
// the label and the depth must agree.
void RandomMovesAgree(const Grammar& g, uint64_t seed, int moves) {
  Tree full = Value(g).take();
  TreeCursor ref{full, full.root()};
  GrammarCursor cur(&g);
  Rng rng(seed);
  for (int step = 0; step < moves; ++step) {
    // Descents dominate so that walks reach deep nodes; Down(3) is
    // beyond every rank of a binary encoding and must fail.
    uint64_t pick = rng.Below(100);
    std::string move;
    bool want;
    bool got;
    if (pick < 20) {
      move = "Down(1)", want = ref.Down(1), got = cur.Down(1);
    } else if (pick < 40) {
      move = "Down(2)", want = ref.Down(2), got = cur.Down(2);
    } else if (pick < 43) {
      move = "Down(3)", want = ref.Down(3), got = cur.Down(3);
    } else if (pick < 55) {
      move = "Up", want = ref.Up(), got = cur.Up();
    } else if (pick < 65) {
      move = "Right", want = ref.Right(), got = cur.Right();
    } else if (pick < 75) {
      move = "Left", want = ref.Left(), got = cur.Left();
    } else if (pick < 84) {
      move = "FirstChildElement", want = ref.ChildElement(1),
      got = cur.FirstChildElement();
    } else if (pick < 93) {
      move = "NextSiblingElement", want = ref.ChildElement(2),
      got = cur.NextSiblingElement();
    } else {
      move = "ParentElement", want = ref.ParentElement(),
      got = cur.ParentElement();
    }
    SCOPED_TRACE("seed " + std::to_string(seed) + ", move " +
                 std::to_string(step) + ": " + move);
    ASSERT_EQ(got, want);
    ASSERT_EQ(cur.Label(), full.label(ref.v));
    ASSERT_EQ(cur.Depth(), ref.depth);
    ASSERT_EQ(cur.AtRoot(), ref.v == full.root());
    ASSERT_EQ(cur.NumChildren(), full.NumChildren(ref.v));
  }
}

TEST_P(CursorCorpusTest, RandomMovesMatchDecompressed) {
  Grammar g = CompressedCorpus(GetParam());
  for (uint64_t seed = 1; seed <= 8; ++seed) RandomMovesAgree(g, seed, 3000);
}

TEST(CursorTest, RandomMovesOnExponentialGrammars) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RandomMovesAgree(DoublingGrammar(10), seed, 3000);
    RandomMovesAgree(ParameterizedChainGrammar(8), seed, 3000);
    RandomMovesAgree(ParameterizedSiblingGrammar(), seed, 500);
  }
}

TEST(CursorTest, ElementNavigation) {
  // <log><e><ip/><st/></e><e><ip/><st/></e></log> compressed.
  XmlTree xml;
  XmlNodeId root = xml.AddNode("log", kXmlNil);
  for (int i = 0; i < 8; ++i) {
    XmlNodeId e = xml.AddNode("e", root);
    xml.AddNode("ip", e);
    xml.AddNode("st", e);
  }
  LabelTable labels;
  Tree bin = EncodeBinary(xml, &labels);
  Grammar g = TreeRePair(std::move(bin), labels, {}).grammar;

  GrammarCursor cur(&g);
  EXPECT_EQ(cur.LabelName(), "log");
  ASSERT_TRUE(cur.FirstChildElement());
  EXPECT_EQ(cur.LabelName(), "e");
  int siblings = 1;
  while (cur.NextSiblingElement()) ++siblings;
  EXPECT_EQ(siblings, 8);
  EXPECT_EQ(cur.LabelName(), "e");
  ASSERT_TRUE(cur.FirstChildElement());
  EXPECT_EQ(cur.LabelName(), "ip");
  ASSERT_TRUE(cur.NextSiblingElement());
  EXPECT_EQ(cur.LabelName(), "st");
  EXPECT_FALSE(cur.NextSiblingElement());
  EXPECT_FALSE(cur.FirstChildElement());  // leaf element
  ASSERT_TRUE(cur.ParentElement());
  EXPECT_EQ(cur.LabelName(), "e");
  ASSERT_TRUE(cur.ParentElement());
  EXPECT_EQ(cur.LabelName(), "log");
  EXPECT_FALSE(cur.ParentElement());
}

TEST(CursorTest, DepthTracksExponentialGrammar) {
  // Chain grammar deriving a deep path: cursor depth must be exact
  // even though the grammar is logarithmic in the tree.
  std::vector<std::string> rules = {"S -> r(A1(e),~)"};
  for (int i = 1; i < 8; ++i) {
    rules.push_back("A" + std::to_string(i) + " -> A" + std::to_string(i + 1) +
                    "(A" + std::to_string(i + 1) + "($1))");
  }
  rules.push_back("A8 -> a($1)");
  Grammar g = GrammarFromRules(rules).take();
  GrammarCursor cur(&g);
  int depth = 0;
  while (cur.Down(1)) ++depth;
  EXPECT_EQ(cur.Depth(), depth);
  EXPECT_EQ(depth, 128 + 1);  // a-chain of 2^7 plus the leaf 'e'
  while (cur.Up()) {
  }
  EXPECT_TRUE(cur.AtRoot());
}

}  // namespace
}  // namespace slg
