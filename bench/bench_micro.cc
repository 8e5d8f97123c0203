// Micro-benchmarks (google-benchmark) for the core primitives: binary
// encoding, grammar evaluation, digram-index construction, path
// isolation, and single update operations. These are the building
// blocks whose costs the macro benches (fig4-6) aggregate.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/bench_util/reporting.h"
#include "src/common/rng.h"
#include "src/core/call_graph_cache.h"
#include "src/core/cursor.h"
#include "src/core/grammar_repair.h"
#include "src/core/retrieve_occs.h"
#include "src/datasets/generators.h"
#include "src/grammar/text_format.h"
#include "src/grammar/usage.h"
#include "src/grammar/value.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/repair/tree_repair.h"
#include "src/service/snapshot.h"
#include "src/update/batch.h"
#include "src/update/update_ops.h"
#include "src/workload/update_workload.h"
#include "src/xml/binary_encoding.h"
#include "src/xml/xml_writer.h"

namespace slg {
namespace {

XmlTree SharedDoc() { return GenerateCorpus(Corpus::kMedline, 0.05); }

void BM_EncodeBinary(benchmark::State& state) {
  XmlTree xml = SharedDoc();
  for (auto _ : state) {
    LabelTable labels;
    Tree t = EncodeBinary(xml, &labels);
    benchmark::DoNotOptimize(t.LiveCount());
  }
  state.SetItemsProcessed(state.iterations() * xml.NodeCount());
}
BENCHMARK(BM_EncodeBinary);

void BM_TreeRePairCompress(benchmark::State& state) {
  XmlTree xml = SharedDoc();
  LabelTable labels;
  Tree bin = EncodeBinary(xml, &labels);
  for (auto _ : state) {
    TreeRepairResult r = TreeRePair(Tree(bin), labels, {});
    benchmark::DoNotOptimize(r.grammar.RuleCount());
  }
  state.SetItemsProcessed(state.iterations() * bin.LiveCount());
}
BENCHMARK(BM_TreeRePairCompress);

struct CompressedFixture {
  Grammar grammar;
  int64_t nodes;
  int64_t elements;
  static CompressedFixture& Get() {
    static CompressedFixture* f = [] {
      XmlTree xml = SharedDoc();
      LabelTable labels;
      Tree bin = EncodeBinary(xml, &labels);
      auto* fx = new CompressedFixture{
          TreeRePair(std::move(bin), labels, {}).grammar, 0, 0};
      fx->nodes = ValueNodeCount(fx->grammar);
      fx->elements = ValueElementCount(fx->grammar);
      return fx;
    }();
    return *f;
  }
};

void BM_Decompress(benchmark::State& state) {
  CompressedFixture& f = CompressedFixture::Get();
  for (auto _ : state) {
    auto t = Value(f.grammar);
    benchmark::DoNotOptimize(t.value().LiveCount());
  }
  state.SetItemsProcessed(state.iterations() * f.nodes);
}
BENCHMARK(BM_Decompress);

void BM_DigramIndexBuild(benchmark::State& state) {
  CompressedFixture& f = CompressedFixture::Get();
  auto usage = ComputeUsage(f.grammar);
  for (auto _ : state) {
    GrammarDigramIndex index;
    index.Build(f.grammar, usage);
    benchmark::DoNotOptimize(index.TotalOccurrences());
  }
}
BENCHMARK(BM_DigramIndexBuild);

// Document-order DFS over every element of val(G) through the cursor:
// the query-without-decompression workload the paper's premise rests
// on. Exercises Down/Up across rule boundaries on every step.
void BM_CursorDfsTraversal(benchmark::State& state) {
  CompressedFixture& f = CompressedFixture::Get();
  for (auto _ : state) {
    GrammarCursor cur(&f.grammar);
    int64_t visited = 1;
    bool done = false;
    while (!done) {
      if (cur.FirstChildElement()) {
        ++visited;
        continue;
      }
      for (;;) {
        if (cur.NextSiblingElement()) {
          ++visited;
          break;
        }
        if (!cur.ParentElement()) {
          done = true;
          break;
        }
      }
    }
    benchmark::DoNotOptimize(visited);
  }
  state.SetItemsProcessed(state.iterations() * f.elements);
}
BENCHMARK(BM_CursorDfsTraversal);

// Root-to-leaf descents (alternating first-child / next-sibling) and
// the matching ascents: the pure Down/Up hot loop.
void BM_CursorRootToLeaf(benchmark::State& state) {
  CompressedFixture& f = CompressedFixture::Get();
  GrammarCursor cur(&f.grammar);
  int64_t steps = 0;
  for (auto _ : state) {
    cur.ToRoot();
    int which = 1;
    while (cur.Down(which)) {
      ++steps;
      which = (which == 1) ? 2 : 1;
    }
    while (cur.Up()) ++steps;
    benchmark::DoNotOptimize(cur.Depth());
  }
  state.SetItemsProcessed(steps);
}
BENCHMARK(BM_CursorRootToLeaf);

// Sibling scan along the element list of the root's children: the
// binary encoding turns this into repeated Down(2) hops.
void BM_CursorSiblingScan(benchmark::State& state) {
  CompressedFixture& f = CompressedFixture::Get();
  GrammarCursor cur(&f.grammar);
  int64_t scanned = 0;
  for (auto _ : state) {
    cur.ToRoot();
    if (cur.FirstChildElement()) {
      ++scanned;
      while (cur.NextSiblingElement()) ++scanned;
    }
    benchmark::DoNotOptimize(cur.Depth());
  }
  state.SetItemsProcessed(scanned);
}
BENCHMARK(BM_CursorSiblingScan);

// Point reads on an immutable snapshot: XMark at scale 1 ingested by
// the 4-shard pipeline, read at Zipf(0.99) ranks hashed over the
// document's positions, and FindElement cases (tag, k <= 64) drawn
// from the tags' occurrences — the read mix of the end-to-end
// query-xmark workload (e2ebench/e2e_bench.cc, seed 1).
struct SnapshotFixture {
  std::shared_ptr<const GrammarSnapshot> snap;
  std::vector<int64_t> positions;
  std::vector<std::pair<std::string, int64_t>> finds;

  static SnapshotFixture& Get() {
    static SnapshotFixture* f = [] {
      auto* fx = new SnapshotFixture;
      CompressOptions o;
      o.num_threads = 4;
      o.num_shards = 4;
      fx->snap = CompressXmlToSnapshot(
                     WriteXml(GenerateCorpus(Corpus::kXMark, 1.0,
                                             1000003ULL + 17)),
                     o)
                     .take();
      const int64_t n = fx->snap->node_count();
      std::vector<double> cdf;
      double sum = 0;
      for (int64_t r = 1; r <= n; ++r) {
        sum += 1.0 / std::pow(static_cast<double>(r), 0.99);
        cdf.push_back(sum);
      }
      Rng rng(1);
      for (int i = 0; i < 4096; ++i) {
        double u = static_cast<double>(rng.Next() >> 11) / 9007199254740992.0;
        uint64_t rank = static_cast<uint64_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u * sum) - cdf.begin());
        fx->positions.push_back(
            1 + static_cast<int64_t>((rank * 0x9E3779B97F4A7C15ULL) %
                                     static_cast<uint64_t>(n)));
      }
      const Grammar& g = fx->snap->grammar();
      Tree full = Value(g).take();
      std::map<LabelId, int64_t> occurrences;
      full.VisitPreorder(full.root(), [&](NodeId v) {
        if (full.label(v) != kNullLabel) ++occurrences[full.label(v)];
      });
      std::vector<std::pair<LabelId, int64_t>> tags(occurrences.begin(),
                                                    occurrences.end());
      for (int i = 0; i < 1024; ++i) {
        const auto& [tag, count] = tags[rng.Below(tags.size())];
        fx->finds.emplace_back(
            std::string(g.labels().Name(tag)),
            1 + static_cast<int64_t>(rng.Below(static_cast<uint64_t>(
                    std::min<int64_t>(count, 64)))));
      }
      return fx;
    }();
    return *f;
  }
};

void BM_SnapshotLabelAt(benchmark::State& state) {
  SnapshotFixture& f = SnapshotFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    auto l = f.snap->LabelAt(f.positions[i++ % f.positions.size()]);
    benchmark::DoNotOptimize(l.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotLabelAt);

void BM_SnapshotFindElement(benchmark::State& state) {
  SnapshotFixture& f = SnapshotFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    const auto& [tag, k] = f.finds[i++ % f.finds.size()];
    auto pos = f.snap->FindElement(tag, k);
    benchmark::DoNotOptimize(pos.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotFindElement);

// Path queries on an immutable snapshot, one iteration = one pass over
// a query mix of the end-to-end bench (e2ebench/e2e_bench.cc, seed 1).
// BM_QueryMix runs the query-xmark mix on the 4-shard XMark snapshot
// above; BM_QueryMixSparse runs the durable-treebank mix on Treebank
// 0.2 ingested sequentially, whose start rule keeps the whole
// document's arena id space after the repair while only a small
// fraction of it stays live.
void RunQueryMix(benchmark::State& state, const GrammarSnapshot& snap,
                 const std::vector<std::string>& mix) {
  for (auto _ : state) {
    for (const std::string& q : mix) {
      auto r = snap.RunQuery(q);
      benchmark::DoNotOptimize(r.ok());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(mix.size()));
}

void BM_QueryMix(benchmark::State& state) {
  static const std::vector<std::string> kMix = {
      "count(//item)",
      "exists(/site/people/person/watches/watch)",
      "first(//open_auction/bidder/bid)",
      "nth(//person, 300)",
      "count(/site/regions/*/item[2]/mailbox/mail)",
      "count(//closed_auction//keyword)",
      "first(/site/categories/category[7]/description//text)",
      "nth(//listitem//keyword, 100)"};
  RunQueryMix(state, *SnapshotFixture::Get().snap, kMix);
}
BENCHMARK(BM_QueryMix);

void BM_QueryMixSparse(benchmark::State& state) {
  static const std::vector<std::string> kMix = {
      "count(//NP)",  "exists(//SBAR//VP/VBD)",    "first(//PRN)",
      "nth(//PP, 50)", "count(/FILE/EMPTY[5]/S/*)", "count(//S/VP)",
      "first(//VP/NP/DT)", "nth(//DT, 200)"};
  static const std::shared_ptr<const GrammarSnapshot>* snap = [] {
    CompressOptions o;
    o.num_shards = 1;
    return new std::shared_ptr<const GrammarSnapshot>(
        CompressXmlToSnapshot(
            WriteXml(GenerateCorpus(Corpus::kTreebank, 0.2, 1000003ULL + 17)),
            o)
            .take());
  }();
  RunQueryMix(state, **snap, kMix);
}
BENCHMARK(BM_QueryMixSparse);

void BM_PathIsolation(benchmark::State& state) {
  CompressedFixture& f = CompressedFixture::Get();
  int64_t pos = 1;
  for (auto _ : state) {
    Grammar g = f.grammar.Clone();
    auto u = BatchUpdater(&g).Isolate(1 + (pos * 7919) % f.nodes);
    benchmark::DoNotOptimize(u.ok());
    ++pos;
  }
}
BENCHMARK(BM_PathIsolation);

void BM_SingleRename(benchmark::State& state) {
  CompressedFixture& f = CompressedFixture::Get();
  int64_t pos = 1;
  for (auto _ : state) {
    Grammar g = f.grammar.Clone();
    Status st = RenameNode(&g, 1 + (pos * 104729) % (f.nodes / 2), "zz");
    benchmark::DoNotOptimize(st.ok());
    ++pos;
  }
}
BENCHMARK(BM_SingleRename);

// 50 renames through the batched engine (shared snapshot, one GC):
// the per-operation cost BM_SingleRename pays 50 times over.
void BM_BatchRenames(benchmark::State& state) {
  CompressedFixture& f = CompressedFixture::Get();
  std::vector<RenameOp> ops;
  {
    Tree full = Value(f.grammar).take();
    ops = MakeRenameWorkload(full, f.grammar.labels(), 50, 5);
  }
  for (auto _ : state) {
    Grammar g = f.grammar.Clone();
    BatchUpdater batch(&g);
    for (const RenameOp& op : ops) {
      Status st = batch.Rename(op.preorder, op.label);
      benchmark::DoNotOptimize(st.ok());
    }
    batch.Finish();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ops.size()));
}
BENCHMARK(BM_BatchRenames);

// Recompression of an update-damaged grammar: the GrammarRePair leg
// the bucketed GrammarDigramIndex accelerates (delta add/remove in
// pure-local rounds, bucketed MostFrequent, per-rule drop/rescan).
void BM_GrammarRePairRecompress(benchmark::State& state) {
  CompressedFixture& f = CompressedFixture::Get();
  static Grammar* damaged = [] {
    Grammar* g = new Grammar(CompressedFixture::Get().grammar.Clone());
    Tree full = Value(*g).take();
    std::vector<RenameOp> ops = MakeRenameWorkload(full, g->labels(), 50, 3);
    BatchUpdater batch(g);
    for (const RenameOp& op : ops) {
      SLG_CHECK(batch.Rename(op.preorder, op.label).ok());
    }
    batch.Finish();
    return g;
  }();
  GrammarRepairOptions opts;
  opts.repair.require_positive_savings = true;
  for (auto _ : state) {
    GrammarRepairResult r = GrammarRePair(damaged->Clone(), opts);
    benchmark::DoNotOptimize(r.rounds);
  }
  state.SetItemsProcessed(state.iterations() * f.nodes);
}
BENCHMARK(BM_GrammarRePairRecompress);

// Incremental usage propagation in steady state. A star of 1024
// spokes (S calls every Ai, each Ai calls its private leaf Li); per
// iteration the call count of the first `k` spokes toggles 1 <-> 2
// (SetCallees) and one Update() runs. The cache must repropagate
// usage for O(k) rules — the curve over k is the damage-
// proportionality of the usage layer (a flat O(#rules) cost shows up
// as an incompressible floor at small k).
void BM_UsagePropagation(benchmark::State& state) {
  constexpr int kSpokes = 1024;
  struct Fixture {
    Grammar g;
    std::vector<LabelId> spokes, leaves;
  };
  static Fixture* f = [] {
    std::vector<std::string> rules;
    std::string s = "S -> ";
    std::string close;
    for (int i = 1; i <= kSpokes; ++i) {
      s += "f(A" + std::to_string(i) + ",";
      close += ")";
    }
    s += "b" + close;
    rules.push_back(s);
    for (int i = 1; i <= kSpokes; ++i) {
      rules.push_back("A" + std::to_string(i) + " -> g(L" + std::to_string(i) +
                      ",L" + std::to_string(i) + ")");
      rules.push_back("L" + std::to_string(i) + " -> b");
    }
    auto* fx = new Fixture{GrammarFromRules(rules).take(), {}, {}};
    for (int i = 1; i <= kSpokes; ++i) {
      fx->spokes.push_back(fx->g.labels().Find("A" + std::to_string(i)));
      fx->leaves.push_back(fx->g.labels().Find("L" + std::to_string(i)));
    }
    return fx;
  }();
  CallGraphCache cache;
  cache.Build(f->g);
  const int k = static_cast<int>(state.range(0));
  int count = 1;
  for (auto _ : state) {
    for (int i = 0; i < k; ++i) {
      cache.SetCallees(f->spokes[i], {{f->leaves[i], count}});
    }
    cache.Update(f->g, {}, {});
    benchmark::DoNotOptimize(cache.usage_changed().size());
    count = 3 - count;  // 1 <-> 2
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_UsagePropagation)->RangeMultiplier(4)->Range(1, 1024);

// Dynamic anti-SL order maintenance. 1025 initially independent rules
// under a start rule; per iteration `k` order-violating call edges are
// inserted (rule i gains a call to rule N-i, whose position is far
// later) and then removed again via SetCallees + Update. Insertions
// trigger the bounded Pearce–Kelly reorder; deletions are free. The
// curve over k shows maintenance cost scaling with the damaged-edge
// count instead of the rule count (the old code rebuilt the whole
// order every round).
void BM_AntiSlMaintain(benchmark::State& state) {
  constexpr int kRules = 2050;
  struct Fixture {
    Grammar g;
    std::vector<LabelId> rules;
  };
  static Fixture* f = [] {
    std::vector<std::string> rules;
    std::string s = "S -> ";
    std::string close;
    for (int i = 1; i <= kRules; ++i) {
      s += "f(B" + std::to_string(i) + ",";
      close += ")";
    }
    s += "b" + close;
    rules.push_back(s);
    for (int i = 1; i <= kRules; ++i) {
      rules.push_back("B" + std::to_string(i) + " -> g(b,b)");
    }
    auto* fx = new Fixture{GrammarFromRules(rules).take(), {}};
    for (int i = 1; i <= kRules; ++i) {
      fx->rules.push_back(fx->g.labels().Find("B" + std::to_string(i)));
    }
    return fx;
  }();
  CallGraphCache cache;
  cache.Build(f->g);
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int i = 0; i < k; ++i) {
      // B_{i+1} -> call of B_{kRules-i}: pos(callee) > pos(caller), so
      // every one of these violates the current order.
      cache.SetCallees(f->rules[static_cast<size_t>(i)],
                       {{f->rules[static_cast<size_t>(kRules - 1 - i)], 1}});
    }
    cache.Update(f->g, {}, {});
    for (int i = 0; i < k; ++i) {
      cache.SetCallees(f->rules[static_cast<size_t>(i)], {});
    }
    cache.Update(f->g, {}, {});
    benchmark::DoNotOptimize(cache.usage_changed().size());
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_AntiSlMaintain)->RangeMultiplier(4)->Range(1, 1024);

// --- observability primitives ---------------------------------------
// The costs every instrumented hot path pays. Counter increments and
// histogram records are always on (relaxed atomics); spans are a
// relaxed load + branch when tracing is off and two clock reads + a
// ring push when it is on. docs/OBSERVABILITY.md quotes these numbers.

void BM_CounterInc(benchmark::State& state) {
  obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("bench.micro_counter");
  for (auto _ : state) {
    c.Increment();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterInc);

void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram& h =
      obs::MetricsRegistry::Global().GetHistogram("bench.micro_histogram");
  int64_t v = 0;
  for (auto _ : state) {
    h.Record(v++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_SpanEnterExit(benchmark::State& state) {
  // Tracing disabled — the production default every caller pays.
  obs::SetTraceEnabled(false);
  for (auto _ : state) {
    obs::TraceSpan span("bench.micro_span");
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanEnterExit);

void BM_SpanEnterExitEnabled(benchmark::State& state) {
  obs::SetTraceEnabled(true);
  for (auto _ : state) {
    obs::TraceSpan span("bench.micro_span");
    benchmark::DoNotOptimize(&span);
  }
  obs::SetTraceEnabled(false);
  obs::ClearTrace();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanEnterExitEnabled);

}  // namespace
}  // namespace slg

// Custom main: identical to BENCHMARK_MAIN() except that results are
// also written to BENCH_micro.json (JSON reporter) unless the caller
// passes their own --benchmark_out, so the perf trajectory of the hot
// paths is machine-readable from every run.
int main(int argc, char** argv) {
  std::vector<char*> args =
      slg::BenchmarkArgsWithJsonDefault(argc, argv, "BENCH_micro.json");
  int ac = static_cast<int>(args.size());
  benchmark::Initialize(&ac, args.data());
  if (benchmark::ReportUnrecognizedArguments(ac, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
