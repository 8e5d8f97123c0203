// SnapshotNav: LabelAt / FindLabel on the grammar DAG (no
// decompression, no isolation) must agree with the decompressed tree
// on compressed grammars of every corpus shape — including grammars
// whose rules take parameters.

#include "src/core/snapshot_nav.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/core/grammar_repair.h"
#include "src/datasets/generators.h"
#include "tests/exponential_grammars.h"
#include "src/grammar/rule_meta.h"
#include "src/grammar/text_format.h"
#include "src/grammar/value.h"
#include "src/xml/binary_encoding.h"
#include "src/xml/xml_parser.h"

namespace slg {
namespace {

Grammar CompressedCorpus(Corpus c) {
  XmlTree xml = GenerateCorpus(c, 0.01);
  LabelTable labels;
  Tree bin = EncodeBinary(xml, &labels);
  return GrammarRePair(Grammar::ForTree(std::move(bin), labels), {}).grammar;
}

// Checks every navigation query against the decompressed tree: LabelAt
// at every position, FindLabel at the first, a middle and the last
// occurrence of every label — at every occurrence of `every_k`.
void CrossCheck(const Grammar& g, LabelId every_k = kNoLabel) {
  RuleMeta meta = RuleMeta::Build(g, /*with_sizes=*/true);
  SnapshotNav nav(&g, &meta);

  Tree full = Value(g).take();
  std::vector<LabelId> expect;
  full.VisitPreorder(full.root(),
                     [&](NodeId v) { expect.push_back(full.label(v)); });
  const int64_t n = static_cast<int64_t>(expect.size());
  ASSERT_EQ(nav.DerivedSize(), n);

  // LabelAt over every position, plus both out-of-range sides.
  for (int64_t i = 0; i < n; ++i) {
    StatusOr<LabelId> l = nav.LabelAt(i + 1);
    ASSERT_TRUE(l.ok()) << "preorder " << (i + 1);
    ASSERT_EQ(l.value(), expect[i]) << "preorder " << (i + 1);
  }
  EXPECT_FALSE(nav.LabelAt(0).ok());
  EXPECT_FALSE(nav.LabelAt(n + 1).ok());
  EXPECT_FALSE(nav.LabelAt(-5).ok());

  // Occurrence counts per label, from the reference walk.
  std::map<LabelId, std::vector<int64_t>> positions;
  for (int64_t i = 0; i < n; ++i) positions[expect[i]].push_back(i + 1);

  for (const auto& [label, where] : positions) {
    const int64_t count = static_cast<int64_t>(where.size());
    std::vector<int64_t> ks = {1, (count + 1) / 2, count};
    if (label == every_k) {
      ks.clear();
      for (int64_t k = 1; k <= count; ++k) ks.push_back(k);
    }
    for (int64_t k : ks) {
      StatusOr<int64_t> pos = nav.FindLabel(label, k);
      ASSERT_TRUE(pos.ok()) << "label " << label << " k " << k;
      ASSERT_EQ(pos.value(), where[k - 1]) << "label " << label << " k " << k;
    }
    EXPECT_FALSE(nav.FindLabel(label, count + 1).ok());
  }
  EXPECT_FALSE(nav.FindLabel(kNoLabel, 1).ok());
  EXPECT_FALSE(nav.FindLabel(0, 0).ok());  // k < 1
}

class SnapshotNavCorpusTest : public ::testing::TestWithParam<Corpus> {};

TEST_P(SnapshotNavCorpusTest, AgreesWithDecompressedTree) {
  CrossCheck(CompressedCorpus(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    All, SnapshotNavCorpusTest,
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

TEST(SnapshotNavTest, ParameterizedRules) {
  // Rules with parameters in non-trivial positions: occurrences and
  // sizes must flow through the actual-argument prefix sums.
  CrossCheck(ParameterizedSiblingGrammar());
}

TEST(SnapshotNavTest, DeepSharedChain) {
  // Exponential derived size from a logarithmic grammar: navigation
  // must stay exact without materializing the 2^7-deep chain.
  Grammar g = ParameterizedChainGrammar(8);
  RuleMeta meta = RuleMeta::Build(g, /*with_sizes=*/true);
  SnapshotNav nav(&g, &meta);
  EXPECT_EQ(nav.DerivedSize(), ValueNodeCount(g));
  CrossCheck(g);
}

TEST(SnapshotNavTest, NestedCalls) {
  // Calls nested inside each other's arguments: every level's target
  // lies in a segment entered through an argument of the level above.
  for (int k : {1, 7, 64}) {
    SCOPED_TRACE(k);
    CrossCheck(NestedCallGrammar(k));
  }
}

TEST(SnapshotNavTest, Doubling) { CrossCheck(DoublingGrammar(10)); }

// A flat document of n siblings <s/> under one root: a binary chain of
// depth n, which compression folds into nested parameterized rules.
Grammar FlatSiblings(int n, bool compress) {
  std::string xml = "<r>";
  for (int i = 0; i < n; ++i) xml += "<s/>";
  xml += "</r>";
  LabelTable labels;
  Tree bin = EncodeBinary(ParseXml(xml).take(), &labels);
  Grammar g = Grammar::ForTree(std::move(bin), labels);
  return compress ? GrammarRePair(std::move(g), {}).grammar : std::move(g);
}

TEST(SnapshotNavTest, FlatSiblingChain) {
  Grammar g = FlatSiblings(20000, /*compress=*/true);
  CrossCheck(g, g.labels().Find("s"));
  // Uncompressed, the whole chain is one start-rule segment.
  CrossCheck(FlatSiblings(20000, /*compress=*/false));
}

// Label at preorder position p of the complete binary tree of height
// h (internal nodes f, leaves a); each child subtree of a node of
// height h has 2^h - 1 nodes.
std::string CompleteTreeLabel(int64_t p, int h) {
  for (;;) {
    if (p == 1) return h == 0 ? "a" : "f";
    --p;
    bool left = h >= 63 || p <= (int64_t{1} << h) - 1;
    if (!left) p -= (int64_t{1} << h) - 1;
    --h;
  }
}

// Position of the k-th leaf (1-based) of the complete binary tree of
// height h, for k small enough that only the low bits of k-1 are set.
int64_t CompleteTreeLeaf(int64_t k, int h) {
  int64_t pos = 1;
  for (; h >= 1; --h) {
    bool right = h - 1 < 63 && (((k - 1) >> (h - 1)) & 1);
    pos += right ? (int64_t{1} << h) : 1;
  }
  return pos;
}

TEST(SnapshotNavTest, SaturatedDerivedSize) {
  // val(S) has 2^81 - 1 nodes: every size above the cap saturates,
  // and positions up to the cap must still be exact.
  constexpr int kHeight = 80;
  Grammar g = DoublingGrammar(kHeight);
  RuleMeta meta = RuleMeta::Build(g, /*with_sizes=*/true);
  SnapshotNav nav(&g, &meta);
  ASSERT_EQ(nav.DerivedSize(), kSizeCap);

  std::vector<int64_t> probes;
  for (int64_t p = 1; p <= 4096; ++p) probes.push_back(p);
  for (int64_t d = -3; d <= 3; ++d) probes.push_back((int64_t{1} << 40) + d);
  probes.push_back(nav.DerivedSize());
  for (int64_t p : probes) {
    StatusOr<LabelId> l = nav.LabelAt(p);
    ASSERT_TRUE(l.ok()) << "preorder " << p;
    ASSERT_EQ(g.labels().Name(l.value()), CompleteTreeLabel(p, kHeight))
        << "preorder " << p;
  }
  EXPECT_EQ(nav.LabelAt(nav.DerivedSize() + 1).status().code(),
            StatusCode::kOutOfRange);

  LabelId leaf = g.labels().Find("a");
  for (int64_t k = 1; k <= 64; ++k) {
    StatusOr<int64_t> pos = nav.FindLabel(leaf, k);
    ASSERT_TRUE(pos.ok()) << "k " << k;
    EXPECT_EQ(pos.value(), CompleteTreeLeaf(k, kHeight)) << "k " << k;
  }
}

}  // namespace
}  // namespace slg
