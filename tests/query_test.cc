// Query engine: parse/plan validation, and differential evaluation —
// every engine answer (count / exists / first / nth and the reported
// positions) must agree with a decompress-then-scan oracle, on
// compressed versions of all six corpora and on hand-built
// parameterized / deep-chain grammars. The oracle implements the path
// semantics directly on the materialized binary tree and shares no
// code with the engine.

#include "src/query/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/grammar_repair.h"
#include "src/datasets/generators.h"
#include "src/grammar/rule_summary.h"
#include "src/grammar/text_format.h"
#include "src/grammar/value.h"
#include "src/service/snapshot.h"
#include "src/xml/binary_encoding.h"
#include "src/xml/xml_writer.h"
#include "tests/exponential_grammars.h"

namespace slg {
namespace {

Grammar CompressedCorpus(Corpus c) {
  XmlTree xml = GenerateCorpus(c, 0.01);
  LabelTable labels;
  Tree bin = EncodeBinary(xml, &labels);
  return GrammarRePair(Grammar::ForTree(std::move(bin), labels), {}).grammar;
}

// ---------------------------------------------------------------------------
// Oracle: path matching on the materialized binary tree.

// The sibling chain serving as "children of a": the first child
// followed by its next-sibling (second-child) links; the virtual
// root's chain starts at the tree root. ⊥ slots ride along and are
// rejected by the predicate.
std::vector<NodeId> ChildChain(const Tree& t, NodeId a) {
  std::vector<NodeId> out;
  for (NodeId c = a == kNilNode ? t.root() : t.Child(a, 1); c != kNilNode;
       c = t.Child(c, 2)) {
    out.push_back(c);
  }
  return out;
}

// Proper descendants of a — the binary subtree hanging off a's first
// child (the classic first-child/next-sibling fact), expanded through
// first two children only, mirroring the query contract.
std::vector<NodeId> Descendants(const Tree& t, NodeId a) {
  std::vector<NodeId> out;
  std::vector<NodeId> stack;
  NodeId s = a == kNilNode ? t.root() : t.Child(a, 1);
  if (s != kNilNode) stack.push_back(s);
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    out.push_back(v);
    if (NodeId c2 = t.Child(v, 2); c2 != kNilNode) stack.push_back(c2);
    if (NodeId c1 = t.Child(v, 1); c1 != kNilNode) stack.push_back(c1);
  }
  return out;
}

// 1-based binary preorder positions (⊥ included) of the nodes
// matching the path, ascending.
std::vector<int64_t> OracleMatches(const Tree& t, const LabelTable& labels,
                                   const Query& q) {
  std::set<NodeId> anchors = {kNilNode};  // the virtual root
  for (const QueryStep& step : q.steps) {
    auto pred = [&](NodeId v) {
      LabelId l = t.label(v);
      if (l == kNullLabel) return false;
      return step.wildcard || labels.Name(l) == step.label;
    };
    std::set<NodeId> next;
    for (NodeId a : anchors) {
      if (step.axis == Axis::kChild) {
        int64_t c = 0;
        for (NodeId v : ChildChain(t, a)) {
          if (!pred(v)) continue;
          ++c;
          if (step.positional == 0) {
            next.insert(v);
          } else if (c == step.positional) {
            next.insert(v);
            break;
          }
        }
      } else {
        for (NodeId v : Descendants(t, a)) {
          if (pred(v)) next.insert(v);
        }
      }
    }
    anchors = std::move(next);
  }
  NodeId max_id = 0;
  t.VisitPreorder(t.root(), [&](NodeId v) { max_id = std::max(max_id, v); });
  std::vector<int64_t> pos(static_cast<size_t>(max_id) + 1, 0);
  int64_t p = 0;
  t.VisitPreorder(t.root(), [&](NodeId v) { pos[static_cast<size_t>(v)] = ++p; });
  std::vector<int64_t> out;
  for (NodeId v : anchors) out.push_back(pos[static_cast<size_t>(v)]);
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Work bound: the (rule, ctx) pairs a full evaluation must memoize,
// found by plain recursion over the rule DAG — a call reached under a
// non-empty context that the label filter cannot prune needs its
// callee's pair. Shares the plan and the summary's label filter with
// the engine, not its evaluation loop. A pass that walks each memo
// entry's body once keeps body_nodes <= the sum of |rhs| over them.

struct MemoPairs {
  const Grammar& g;
  const RuleSummary& sum;
  const QueryPlan& plan;
  const std::vector<LabelId>& binding;
  std::map<std::pair<LabelId, uint64_t>, std::vector<uint64_t>> exits;

  bool Prunable(LabelId rule, uint64_t ctx) const {
    if (!plan.OnlyDescendantStates(ctx)) return false;
    for (uint64_t bits = ctx; bits != 0; bits &= bits - 1) {
      size_t i = static_cast<size_t>(plan.StateStep(__builtin_ctzll(bits)));
      if (plan.query().steps[i].wildcard) return false;
      if (binding[i] != kNoLabel && sum.MayContain(rule, binding[i])) {
        return false;
      }
    }
    return true;
  }

  // The contexts rule r hands its parameters under context q.
  std::vector<uint64_t> Eval(LabelId r, uint64_t q) {
    auto key = std::make_pair(r, q);
    if (auto it = exits.find(key); it != exits.end()) return it->second;
    const LabelTable& labels = g.labels();
    const Tree& t = g.rhs(r);
    std::map<NodeId, uint64_t> ctx = {{t.root(), q}};
    std::vector<uint64_t> ex(static_cast<size_t>(labels.Rank(r)), 0);
    for (NodeId v : t.Preorder()) {
      uint64_t u = ctx[v];
      LabelId l = t.label(v);
      if (int j = labels.ParamIndex(l); j > 0) {
        ex[static_cast<size_t>(j - 1)] = u;
        continue;
      }
      std::vector<uint64_t> out;  // per child, in order
      if (!g.HasRule(l)) {
        out = {plan.Own(u, l, binding) & ~plan.AcceptBit(),
               plan.Next(u, l, binding)};
      } else if (u != 0 && !Prunable(l, u)) {
        out = Eval(l, u);
      } else {
        out.assign(static_cast<size_t>(labels.Rank(l)), u);
      }
      size_t j = 0;
      for (NodeId c = t.first_child(v); c != kNilNode;
           c = t.next_sibling(c), ++j) {
        ctx[c] = j < out.size() ? out[j] : 0;
      }
    }
    exits[key] = ex;
    return ex;
  }
};

// ---------------------------------------------------------------------------
// Differential harness.

struct EngineFixture {
  const Grammar& g;
  RuleSummary summary;
  Tree full;
  QueryEngine engine;

  explicit EngineFixture(const Grammar& grammar)
      : g(grammar),
        summary(RuleSummary::Build(g)),
        full(Value(g).take()),
        engine(&g, &summary) {}

  // Every label name occurring in the document.
  std::vector<std::string> MaterialNames() const {
    std::set<std::string> names;
    full.VisitPreorder(full.root(), [&](NodeId v) {
      if (full.label(v) != kNullLabel) names.insert(g.labels().Name(full.label(v)));
    });
    return {names.begin(), names.end()};
  }

  void CheckWorkBound(const Query& q, const QueryStats& stats) const {
    std::vector<LabelId> binding(q.steps.size(), kNoLabel);
    for (size_t i = 0; i < q.steps.size(); ++i) {
      if (q.steps[i].wildcard) continue;
      binding[i] = g.labels().Find(q.steps[i].label);
      if (binding[i] == kNoLabel) {
        EXPECT_EQ(stats.body_nodes, 0);  // answered without evaluating
        return;
      }
    }
    StatusOr<QueryPlan> plan = QueryPlan::Compile(q);
    ASSERT_TRUE(plan.ok());
    MemoPairs ref{g, summary, plan.value(), binding, {}};
    ref.Eval(g.start(), plan.value().InitialContext());
    std::set<LabelId> rules;
    int64_t walked = 0;
    for (const auto& [key, exits] : ref.exits) {
      rules.insert(key.first);
      walked += g.rhs(key.first).LiveCount();
    }
    EXPECT_EQ(stats.memo_entries, static_cast<int64_t>(ref.exits.size()));
    EXPECT_EQ(stats.rules_visited, static_cast<int64_t>(rules.size()));
    EXPECT_LE(stats.body_nodes, walked);
  }

  void Check(const std::string& path) const {
    SCOPED_TRACE("path: " + path);
    StatusOr<Query> parsed = Query::Parse("count(" + path + ")");
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    std::vector<int64_t> expect = OracleMatches(full, g.labels(), parsed.value());
    const int64_t n = static_cast<int64_t>(expect.size());

    StatusOr<QueryResult> count = engine.Run(parsed.value());
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(count.value().count, n);
    EXPECT_LE(count.value().stats.rules_visited, g.RuleCount());
    CheckWorkBound(parsed.value(), count.value().stats);

    StatusOr<QueryResult> exists = engine.Run("exists(" + path + ")");
    ASSERT_TRUE(exists.ok());
    EXPECT_EQ(exists.value().exists, n > 0);

    if (n == 0) {
      StatusOr<QueryResult> first = engine.Run("first(" + path + ")");
      EXPECT_EQ(first.status().code(), StatusCode::kNotFound);
      return;
    }
    // First, a middle and the last match, plus one past the end.
    for (int64_t k : {int64_t{1}, (n + 1) / 2, n}) {
      StatusOr<QueryResult> nth =
          engine.Run("nth(" + path + ", " + std::to_string(k) + ")");
      ASSERT_TRUE(nth.ok()) << "k " << k << ": " << nth.status().ToString();
      EXPECT_EQ(nth.value().position, expect[static_cast<size_t>(k - 1)])
          << "k " << k;
      EXPECT_LE(nth.value().stats.rules_visited, g.RuleCount());
    }
    StatusOr<QueryResult> first = engine.Run("first(" + path + ")");
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.value().position, expect[0]);
    StatusOr<QueryResult> past =
        engine.Run("nth(" + path + ", " + std::to_string(n + 1) + ")");
    EXPECT_EQ(past.status().code(), StatusCode::kNotFound);
  }
};

std::string RandomPath(std::mt19937& rng,
                       const std::vector<std::string>& names) {
  std::uniform_int_distribution<int> len_d(1, 4);
  std::uniform_int_distribution<int> pct(0, 99);
  std::uniform_int_distribution<size_t> name_d(0, names.size() - 1);
  std::uniform_int_distribution<int> k_d(1, 3);
  int len = len_d(rng);
  std::string path;
  for (int i = 0; i < len; ++i) {
    bool desc = pct(rng) < 40;
    path += desc ? "//" : "/";
    int r = pct(rng);
    if (r < 15) {
      path += "*";
    } else if (r < 25) {
      path += "no_such_label";
    } else {
      path += names[name_d(rng)];
    }
    if (!desc && pct(rng) < 25) {
      path += "[" + std::to_string(k_d(rng)) + "]";
    }
  }
  return path;
}

void DifferentialSweep(const Grammar& g, int rounds, uint32_t seed) {
  EngineFixture fx(g);
  std::vector<std::string> names = fx.MaterialNames();
  ASSERT_FALSE(names.empty());
  // Fixed shapes touching every feature.
  fx.Check("/" + names.front());
  fx.Check("//" + names.back());
  fx.Check("//*");
  fx.Check("/*[1]/*");
  fx.Check("//" + names[names.size() / 2] + "/*");
  std::mt19937 rng(seed);
  for (int i = 0; i < rounds; ++i) fx.Check(RandomPath(rng, names));
}

class QueryCorpusTest : public ::testing::TestWithParam<Corpus> {};

TEST_P(QueryCorpusTest, AgreesWithDecompressedScan) {
  DifferentialSweep(CompressedCorpus(GetParam()), 40, 20160516);
}

INSTANTIATE_TEST_SUITE_P(
    All, QueryCorpusTest,
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

TEST(QueryEngineTest, DoublingGrammar) {
  DifferentialSweep(DoublingGrammar(6), 30, 7);
}

TEST(QueryEngineTest, ParameterizedSiblingGrammar) {
  DifferentialSweep(ParameterizedSiblingGrammar(), 30, 11);
}

TEST(QueryEngineTest, ParameterizedChainGrammar) {
  DifferentialSweep(ParameterizedChainGrammar(6), 30, 13);
}

TEST(QueryEngineTest, MemoizationBeatsDocumentSize) {
  // The complete binary tree with 2^21-1 nodes compresses to ~22
  // rules; a full count must visit each rule a constant number of
  // times, not the two million document nodes.
  Grammar g = DoublingGrammar(20);
  RuleSummary sum = RuleSummary::Build(g);
  QueryEngine eng(&g, &sum);
  StatusOr<QueryResult> leaves = eng.Run("count(//a)");
  ASSERT_TRUE(leaves.ok());
  EXPECT_EQ(leaves.value().count, int64_t{1} << 20);
  EXPECT_LE(leaves.value().stats.rules_visited, g.RuleCount());
  EXPECT_LE(leaves.value().stats.memo_entries, 4 * g.RuleCount());

  // First leaf sits at the bottom of the leftmost spine.
  StatusOr<QueryResult> first = eng.Run("first(//a)");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().position, 21);

  StatusOr<QueryResult> all = eng.Run("count(//*)");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().count, (int64_t{1} << 21) - 1);
}

TEST(QueryEngineTest, NestedCallsWalkEachBodyOnce) {
  // Each nesting level of the start body reaches A under a context of
  // its own, known only after the level above is memoized. Resuming
  // the start body at the unresolved call keeps the work linear in the
  // nesting depth; re-walking the body once per level is quadratic.
  auto body_nodes = [](int k) -> int64_t {
    Grammar g = NestedCallGrammar(k);
    RuleSummary sum = RuleSummary::Build(g);
    QueryEngine eng(&g, &sum);
    std::string path = "/r";
    for (int i = 0; i < k; ++i) path += "/a";
    StatusOr<QueryResult> r = eng.Run("count(" + path + ")");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return 0;
    EXPECT_EQ(r.value().count, 1);
    EXPECT_EQ(r.value().stats.memo_entries, k + 1);
    EXPECT_EQ(r.value().stats.memo_hits, k);
    return r.value().stats.body_nodes;
  };
  const int64_t n12 = body_nodes(12);
  const int64_t n24 = body_nodes(24);
  const int64_t n48 = body_nodes(48);
  EXPECT_GT(n12, 0);
  EXPECT_LE(n24, 2 * n12);
  EXPECT_LE(n48, 2 * n24);
}

TEST(QueryEngineTest, ConcurrentQueriesMatchSingleThreaded) {
  // Any number of threads may run queries on one snapshot: every
  // evaluation keeps its scratch to itself. Four threads replay the
  // query mix of the end-to-end query-xmark workload against one
  // 4-shard XMark snapshot; every answer and every work counter must
  // equal the single-threaded run's.
  CompressOptions o;
  o.num_threads = 4;
  o.num_shards = 4;
  auto snap = CompressXmlToSnapshot(
                  WriteXml(GenerateCorpus(Corpus::kXMark, 0.1, 1000003ULL + 17)),
                  o)
                  .take();
  const std::vector<std::string> mix = {
      "count(//item)",
      "exists(/site/people/person/watches/watch)",
      "first(//open_auction/bidder/bid)",
      "nth(//person, 30)",
      "count(/site/regions/*/item[2]/mailbox/mail)",
      "count(//closed_auction//keyword)",
      "first(/site/categories/category[7]/description//text)",
      "nth(//listitem//keyword, 10)",
      "nth(//person, 100000)"};
  struct Answer {
    StatusCode code;
    int64_t count, position, rules_visited, memo_entries, memo_hits,
        body_nodes;
    bool operator==(const Answer& o) const {
      return code == o.code && count == o.count && position == o.position &&
             rules_visited == o.rules_visited &&
             memo_entries == o.memo_entries && memo_hits == o.memo_hits &&
             body_nodes == o.body_nodes;
    }
  };
  auto run = [&](const std::string& q) {
    StatusOr<QueryResult> r = snap->RunQuery(q);
    if (!r.ok()) return Answer{r.status().code(), 0, 0, 0, 0, 0, 0};
    const QueryResult& v = r.value();
    return Answer{StatusCode::kOk,          v.count,
                  v.position,               v.stats.rules_visited,
                  v.stats.memo_entries,     v.stats.memo_hits,
                  v.stats.body_nodes};
  };
  std::vector<Answer> expect;
  for (const std::string& q : mix) expect.push_back(run(q));
  for (size_t i = 0; i + 1 < mix.size(); ++i) {
    EXPECT_EQ(expect[i].code, StatusCode::kOk) << mix[i];
  }
  EXPECT_EQ(expect.back().code, StatusCode::kNotFound);
  EXPECT_GT(expect.front().count, 0);

  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < mix.size(); ++i) {
          // Each thread walks the mix from its own offset.
          size_t q = (i + static_cast<size_t>(t)) % mix.size();
          if (!(run(mix[q]) == expect[q])) ++mismatches[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
  }
}

TEST(QueryParseTest, RoundTripAndErrors) {
  for (const char* text :
       {"/a/b", "//a", "/a//b[0-9]", "count(//a/b)", "exists(/x)",
        "first(//y)", "nth(/a/b[2], 7)", "/log/entry[3]/ip"}) {
    StatusOr<Query> q = Query::Parse(text);
    if (!q.ok()) continue;  // the loop mixes in one invalid shape
    StatusOr<Query> again = Query::Parse(q.value().ToString());
    ASSERT_TRUE(again.ok()) << q.value().ToString();
    EXPECT_EQ(again.value().ToString(), q.value().ToString());
  }
  for (const char* bad :
       {"", "a/b", "count(/a", "nth(/a)", "nth(/a, 0)", "/a[0]", "//a[2]",
        "/a]/", "count()", "first(/a) x", "/a[1 2]"}) {
    StatusOr<Query> q = Query::Parse(bad);
    EXPECT_FALSE(q.ok()) << bad;
    if (!q.ok()) {
      EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument) << bad;
    }
  }
  // Positional widths sum into the 64-state budget.
  StatusOr<Query> wide = Query::Parse("/a[60]/b[10]");
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(QueryPlan::Compile(wide.value()).status().code(),
            StatusCode::kInvalidArgument);
  StatusOr<Query> ok = Query::Parse("/a[30]/b[20]");
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(QueryPlan::Compile(ok.value()).ok());
}

}  // namespace
}  // namespace slg
