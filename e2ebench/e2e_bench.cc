// End-to-end serving benchmark: one workload per process.
//
// Drives the public DocumentService surface as a client would — ingest
// from XML text, closed-loop write batches with Flush-driven merges,
// concurrent pinned reads and path queries, durable journaling, and
// close/reopen — and reports end-to-end latencies and rates. With
// --trace=1 it also enables obs tracing, records its own spans around
// every call it makes into a layer (named like the per-layer metrics),
// replays sampled write batches outside-in on the pinned grammar, and
// reports per-layer timings plus the counters the library exports.
//
// A run is a sequence of rounds until --seconds have passed. Each round
// draws its own document and update sequence from (--seed, round),
// ingests it, and serves it. The library only ever sees the generated
// XML text, the generated update batches and the query texts.
//
// Usage:
//   e2e_bench --workload=NAME --seed=N --seconds=S --trace=0|1
//             --workdir=DIR [--small] [--describe]
//
// --small shrinks the workload and runs exactly two rounds (a test size).
//
// Prints one JSON object on stdout (see EmitResult). Exit code 0 when
// every correctness gate passed, 1 on a gate mismatch or an operation
// that failed, 2 on bad arguments.

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/bench_util/reporting.h"
#include "src/common/rng.h"
#include "src/core/grammar_repair.h"
#include "src/datasets/generators.h"
#include "src/grammar/rule_meta.h"
#include "src/grammar/rule_summary.h"
#include "src/grammar/stats.h"
#include "src/grammar/value.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/query/query.h"
#include "src/service/document_service.h"
#include "src/store/journal.h"
#include "src/update/batch.h"
#include "src/workload/update_workload.h"
#include "src/xml/binary_encoding.h"
#include "src/xml/xml_parser.h"
#include "src/xml/xml_writer.h"

namespace slg {
namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// Merges ride the Flush cadence only: a trigger no overlay can reach
// keeps the growth trigger out of the schedule (so merge counters
// repeat exactly for a seed) while leaving it positive, which is what
// makes the durable service rotate a checkpoint after every merge.
constexpr double kNeverTrigger = 1e18;

// ---------------------------------------------------------------------------
// Workload definitions.

struct Spec {
  std::string name;
  Corpus corpus;
  double scale;
  int readers;
  int batches;         // write batches per round (0: read-only workload)
  int batch_ops;       // ops per batch
  int flush_every;     // Flush after every this many batches
  int tail_batches;    // trailing batches left unflushed (durable only)
  bool durable;
  bool sharded;        // ingest through the sharded pipeline (4 shards)
  int reads_per_query; // reader mix: this many point reads per query
  bool find_element;   // one point read per query cycle is a FindElement
  int setups;          // timed ingests per round (the last one serves)
  double read_slice_s; // read-only workload: serving time per round
  int min_rounds;      // at least this many rounds, even past --seconds
  std::vector<std::string> queries;
};

bool MakeSpec(const std::string& name, bool small, Spec* s) {
  if (name == "mixed-medline") {
    *s = Spec{name, Corpus::kMedline, 0.2, 2, 128, 4, 16, 0, false, false,
              7, false, 4, 0, 1,
              {"count(//Author)", "exists(//MeshHeading/QualifierName)",
               "first(//Abstract)", "nth(//MedlineCitation, 25)",
               "count(/MedlineCitationSet/MedlineCitation[3]/Article/"
               "AuthorList/*)",
               "count(//Article//LastName)", "first(//JournalIssue/PubDate/Month)",
               "nth(//PublicationType, 40)"}};
  } else if (name == "durable-treebank") {
    *s = Spec{name, Corpus::kTreebank, 0.2, 1, 136, 4, 16, 8, true, false,
              7, false, 4, 0, 1,
              {"count(//NP)", "exists(//SBAR//VP/VBD)", "first(//PRN)",
               "nth(//PP, 50)", "count(/FILE/EMPTY[5]/S/*)", "count(//S/VP)",
               "first(//VP/NP/DT)", "nth(//DT, 200)"}};
  } else if (name == "query-xmark") {
    *s = Spec{name, Corpus::kXMark, 1.0, 3, 0, 0, 0, 0, false, true,
              3, true, 4, 3.0, 1,
              {"count(//item)", "exists(/site/people/person/watches/watch)",
               "first(//open_auction/bidder/bid)", "nth(//person, 300)",
               "count(/site/regions/*/item[2]/mailbox/mail)",
               "count(//closed_auction//keyword)",
               "first(/site/categories/category[7]/description//text)",
               "nth(//listitem//keyword, 100)"}};
  } else {
    return false;
  }
  if (small) {
    s->scale /= 5;
    if (s->batches > 0) {
      s->batches = 32 + s->tail_batches / 2;
      s->tail_batches /= 2;
    }
    s->setups = 1;
    s->read_slice_s = 0;
    s->min_rounds = 2;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Samples and summaries.

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

struct Metric {
  double value = 0;
  std::string unit;
  int64_t n = 0;  // samples behind the value (0 for counts and ratios)
};

// Registry reads: counters/gauges by value, histograms by (count, sum).
struct RegistryView {
  std::map<std::string, std::pair<int64_t, int64_t>> cells;

  static RegistryView Take() {
    RegistryView v;
    for (const auto& e : obs::MetricsRegistry::Global().Snapshot()) {
      v.cells[e.name] = {e.value, e.sum};
    }
    return v;
  }
  int64_t Value(const std::string& name) const {
    auto it = cells.find(name);
    return it == cells.end() ? 0 : it->second.first;
  }
  int64_t Sum(const std::string& name) const {
    auto it = cells.find(name);
    return it == cells.end() ? 0 : it->second.second;
  }
};

// Per-event mean of a histogram between two registry reads, in ms.
struct HistDelta {
  int64_t count = 0;
  int64_t sum_us = 0;
  void Add(const RegistryView& before, const RegistryView& after,
           const std::string& name) {
    count += after.Value(name) - before.Value(name);
    sum_us += after.Sum(name) - before.Sum(name);
  }
  double MeanMs() const {
    return count == 0 ? 0 : static_cast<double>(sum_us) / 1e3 /
                                 static_cast<double>(count);
  }
};

// ---------------------------------------------------------------------------
// Generated inputs.

// Each round of a run draws its own inputs, so a run's medians pool
// several documents and update sequences rather than hinge on one.
uint64_t RoundSeed(uint64_t seed, int round) {
  return seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(round);
}

uint64_t Fnv1a(uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct Inputs {
  std::string seed_xml;  // the document handed to FromXml
  // Update batches with label ids of `labels` (the generator's table).
  std::vector<std::vector<UpdateOp>> batches;
  LabelTable labels;
  std::string final_xml;    // tree replay of every batch
  std::string flushed_xml;  // tree replay of the flushed prefix
  int64_t doc_nodes = 0;    // binary nodes of the seed document
  uint64_t digest = 1469598103934665603ULL;
};

Inputs MakeInputs(const Spec& spec, uint64_t seed) {
  Inputs in;
  XmlTree xml = GenerateCorpus(spec.corpus, spec.scale, 1000003ULL * seed + 17);
  Tree bin = EncodeBinary(xml, &in.labels);
  if (spec.batches == 0) {
    in.doc_nodes = bin.LiveCount();
    in.seed_xml = WriteXml(xml);
    in.final_xml = in.seed_xml;
  } else {
    // Paper §V-C mix: 15% renames, the rest 90/10 inserts/deletes.
    WorkloadOptions wo;
    wo.num_ops = spec.batches * spec.batch_ops;
    wo.rename_fraction = 0.15;
    wo.seed = 7919ULL * seed + 3;
    UpdateWorkload w = MakeUpdateWorkload(bin, in.labels, wo);
    in.doc_nodes = w.seed.LiveCount();
    in.seed_xml = WriteXml(DecodeBinary(w.seed, in.labels).take());
    Tree ref(w.seed);
    size_t flushed_ops = static_cast<size_t>(
        (spec.batches - spec.tail_batches) * spec.batch_ops);
    for (size_t i = 0; i < w.ops.size(); ++i) {
      ApplyOpToTree(&ref, w.ops[i]);
      if (i + 1 == flushed_ops) {
        in.flushed_xml = WriteXml(DecodeBinary(ref, in.labels).take());
      }
    }
    in.final_xml = WriteXml(DecodeBinary(ref, in.labels).take());
    for (size_t i = 0; i < w.ops.size(); i += static_cast<size_t>(spec.batch_ops)) {
      size_t end = std::min(w.ops.size(), i + static_cast<size_t>(spec.batch_ops));
      in.batches.emplace_back(w.ops.begin() + static_cast<std::ptrdiff_t>(i),
                              w.ops.begin() + static_cast<std::ptrdiff_t>(end));
      in.digest = Fnv1a(in.digest, EncodeBatch(in.batches.back(), in.labels));
    }
  }
  in.digest = Fnv1a(in.digest, in.seed_xml);
  for (const std::string& q : spec.queries) in.digest = Fnv1a(in.digest, q);
  return in;
}

// Re-expresses the batches in the service's label table, through the
// journal codec (label names), exactly as the durable store receives
// them. Every name must already exist there: Writer::Apply takes ids.
StatusOr<std::vector<std::vector<UpdateOp>>> TranslateBatches(
    const Inputs& in, const LabelTable& service_labels) {
  LabelTable table = service_labels;
  std::vector<std::vector<UpdateOp>> out;
  for (const std::vector<UpdateOp>& batch : in.batches) {
    std::vector<UpdateOp> ops;
    SLG_RETURN_IF_ERROR(DecodeBatch(EncodeBatch(batch, in.labels), &table, &ops));
    out.push_back(std::move(ops));
  }
  if (table.size() != service_labels.size()) {
    return Status::FailedPrecondition(
        "update batches use labels the ingested document lacks");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Decompress-then-scan oracle (read-only workload).

struct Answer {
  bool ok = false;
  int64_t count = 0;
  bool exists = false;
  int64_t position = 0;
};

bool SameAnswer(const Answer& a, const StatusOr<QueryResult>& r) {
  if (!r.ok()) return !a.ok;
  const QueryResult& q = r.value();
  return a.ok && a.count == q.count && a.exists == q.exists &&
         a.position == q.position;
}

std::string Describe(const Answer& a) {
  if (!a.ok) return "NotFound";
  return "count " + std::to_string(a.count) + " exists " +
         std::to_string(a.exists) + " position " + std::to_string(a.position);
}

class TreeOracle {
 public:
  TreeOracle(const Tree& t, const LabelTable& labels) : t_(t), labels_(labels) {
    std::vector<NodeId> pre = t.Preorder();
    NodeId max_id = 0;
    for (NodeId v : pre) max_id = std::max(max_id, v);
    pos_.assign(static_cast<size_t>(max_id) + 1, 0);
    for (size_t i = 0; i < pre.size(); ++i) {
      NodeId v = pre[i];
      pos_[static_cast<size_t>(v)] = static_cast<int64_t>(i) + 1;
      label_at_.push_back(labels.Name(t.label(v)));
      if (t.label(v) != kNullLabel) {
        by_tag_[labels.Name(t.label(v))].push_back(static_cast<int64_t>(i) + 1);
      }
    }
  }

  int64_t size() const { return static_cast<int64_t>(label_at_.size()); }
  const std::string& LabelAt(int64_t pos) const {
    return label_at_[static_cast<size_t>(pos - 1)];
  }
  const std::map<std::string, std::vector<int64_t>>& by_tag() const {
    return by_tag_;
  }

  // Naive set-at-a-time evaluation over the materialized binary tree.
  Answer Evaluate(const Query& q) const {
    std::vector<NodeId> anchors = {kNilNode};  // the virtual document node
    for (const QueryStep& step : q.steps) {
      std::set<NodeId> next;
      for (NodeId a : anchors) {
        if (step.axis == Axis::kChild) {
          int64_t seen = 0;
          for (NodeId c : Children(a)) {
            if (!Matches(step, c)) continue;
            ++seen;
            if (step.positional == 0 || seen == step.positional) next.insert(c);
          }
        } else {
          std::vector<NodeId> stack = Children(a);
          while (!stack.empty()) {
            NodeId v = stack.back();
            stack.pop_back();
            if (Matches(step, v)) next.insert(v);
            for (NodeId c : Children(v)) stack.push_back(c);
          }
        }
      }
      anchors.assign(next.begin(), next.end());
    }
    std::vector<int64_t> positions;
    for (NodeId v : anchors) positions.push_back(pos_[static_cast<size_t>(v)]);
    std::sort(positions.begin(), positions.end());
    Answer a;
    a.ok = true;
    a.count = static_cast<int64_t>(positions.size());
    a.exists = a.count > 0;
    if (q.aggregate == Aggregate::kFirst || q.aggregate == Aggregate::kNth) {
      int64_t k = q.aggregate == Aggregate::kNth ? q.k : 1;
      if (k > a.count) return Answer{};
      a.position = positions[static_cast<size_t>(k - 1)];
    }
    return a;
  }

 private:
  // Element children in document order: the first-child slot, then
  // its next-sibling chain. The virtual document node's only child is
  // the root element.
  std::vector<NodeId> Children(NodeId v) const {
    std::vector<NodeId> out;
    NodeId c = v == kNilNode ? t_.root() : t_.Child(v, 1);
    while (c != kNilNode && t_.label(c) != kNullLabel) {
      out.push_back(c);
      c = t_.Child(c, 2);
    }
    return out;
  }
  bool Matches(const QueryStep& step, NodeId v) const {
    return step.wildcard || labels_.Name(t_.label(v)) == step.label;
  }

  const Tree& t_;
  const LabelTable& labels_;
  std::vector<int64_t> pos_;
  std::vector<std::string> label_at_;
  std::map<std::string, std::vector<int64_t>> by_tag_;
};

// ---------------------------------------------------------------------------
// Readers.

// Zipf(0.99) over ranks, scattered over the document's positions so
// the hot set is not just the root's neighbourhood.
class ZipfPositions {
 public:
  explicit ZipfPositions(int64_t ranks) {
    cdf_.reserve(static_cast<size_t>(ranks));
    double sum = 0;
    for (int64_t r = 1; r <= ranks; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r), 0.99);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }
  // A 1-based position in a document of n binary nodes.
  int64_t Next(Rng& rng, int64_t n) const {
    double u = static_cast<double>(rng.Next() >> 11) * (1.0 / 9007199254740992.0);
    uint64_t rank = static_cast<uint64_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return 1 + static_cast<int64_t>((rank * 0x9E3779B97F4A7C15ULL) %
                                    static_cast<uint64_t>(n));
  }

 private:
  std::vector<double> cdf_;
};

struct QueryCase {
  std::string text;
  Query parsed;
  Answer expected;  // read-only workload only
};

struct ReaderShared {
  const Spec* spec = nullptr;
  const DocumentService* svc = nullptr;
  const ZipfPositions* zipf = nullptr;
  const std::vector<QueryCase>* queries = nullptr;
  const TreeOracle* oracle = nullptr;  // null: answers are not checked
  const std::vector<std::pair<std::string, int64_t>>* find_cases = nullptr;
  bool trace = false;
  uint64_t seed = 0;
};

struct ReaderOut {
  std::vector<double> read_us, query_us;
  // Per-layer legs, traced runs only.
  std::vector<double> open_us, label_at_us, find_us, parse_us, eval_us;
  int64_t reads = 0, queries = 0, failed = 0, mismatches = 0;
  std::string first_error;

  void Merge(const ReaderOut& o) {
    Append(&read_us, o.read_us);
    Append(&query_us, o.query_us);
    Append(&open_us, o.open_us);
    Append(&label_at_us, o.label_at_us);
    Append(&find_us, o.find_us);
    Append(&parse_us, o.parse_us);
    Append(&eval_us, o.eval_us);
    reads += o.reads;
    queries += o.queries;
    failed += o.failed;
    mismatches += o.mismatches;
    if (first_error.empty()) first_error = o.first_error;
  }
  void Fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }
  void Mismatch(const std::string& what) {
    ++mismatches;
    if (first_error.empty()) first_error = what;
  }
};

// Times `fn` into `out` under a trace span named `name` (a literal).
template <typename Fn>
auto Timed(const char* name, std::vector<double>* out, Fn&& fn) {
  obs::TraceSpan span(name, "bench");
  Clock::time_point t0 = Clock::now();
  auto r = fn();
  out->push_back(MicrosSince(t0));
  return r;
}

void ReaderLoop(const ReaderShared& sh, int idx, const std::atomic<bool>& stop,
                ReaderOut* out) {
  Rng rng(sh.seed * 0x2545F4914F6CDD1DULL + static_cast<uint64_t>(idx) + 1);
  const std::vector<QueryCase>& queries = *sh.queries;
  // Every reader completes at least one pass over the query mix.
  const int64_t min_ops =
      static_cast<int64_t>(queries.size()) * (sh.spec->reads_per_query + 1);
  size_t next_query = static_cast<size_t>(idx);
  size_t next_find = static_cast<size_t>(idx) * 97;
  for (int64_t i = 0; !stop.load(std::memory_order_relaxed) || i < min_ops; ++i) {
    Clock::time_point t0 = Clock::now();
    if (i % (sh.spec->reads_per_query + 1) == sh.spec->reads_per_query) {
      const QueryCase& qc = queries[next_query++ % queries.size()];
      StatusOr<QueryResult> r = [&]() -> StatusOr<QueryResult> {
        if (!sh.trace) return sh.svc->OpenReader().RunQuery(qc.text);
        DocumentService::Reader reader = Timed(
            "service.open_reader", &out->open_us, [&] { return sh.svc->OpenReader(); });
        StatusOr<Query> q = Timed("query.parse", &out->parse_us,
                                  [&] { return Query::Parse(qc.text); });
        if (!q.ok()) return q.status();
        return Timed("query.eval", &out->eval_us,
                     [&] { return reader.snapshot().RunQuery(q.value()); });
      }();
      out->query_us.push_back(MicrosSince(t0));
      ++out->queries;
      if (sh.oracle != nullptr && !r.ok() && qc.expected.ok) {
        out->Fail("query " + qc.text + ": " + r.status().ToString());
      } else if (sh.oracle != nullptr) {
        if (!SameAnswer(qc.expected, r)) {
          out->Mismatch("query " + qc.text + ": oracle " + Describe(qc.expected) +
                        ", served " +
                        (r.ok() ? Describe(Answer{true, r.value().count,
                                                  r.value().exists,
                                                  r.value().position})
                                : r.status().ToString()));
        }
      } else if (!r.ok()) {
        out->Fail("query " + qc.text + ": " + r.status().ToString());
      }
      continue;
    }
    DocumentService::Reader reader = sh.trace
        ? Timed("service.open_reader", &out->open_us,
                [&] { return sh.svc->OpenReader(); })
        : sh.svc->OpenReader();
    // FindElement costs several LabelAts; one per query cycle keeps the
    // read median inside LabelAt's distribution instead of on the
    // boundary between the two operations'.
    bool find = sh.spec->find_element && i % (sh.spec->reads_per_query + 1) == 1;
    if (find) {
      const auto& fc = (*sh.find_cases)[next_find++ % sh.find_cases->size()];
      StatusOr<int64_t> r =
          sh.trace ? Timed("read.find_element", &out->find_us,
                           [&] { return reader.FindElement(fc.first, fc.second); })
                   : reader.FindElement(fc.first, fc.second);
      out->read_us.push_back(MicrosSince(t0));
      if (!r.ok()) {
        out->Fail("FindElement: " + r.status().ToString());
      } else if (sh.oracle != nullptr &&
                 r.value() != sh.oracle->by_tag().at(fc.first)[
                                  static_cast<size_t>(fc.second - 1)]) {
        out->Mismatch("FindElement(" + fc.first + ")");
      }
    } else {
      int64_t pos = sh.zipf->Next(rng, reader.BinaryNodeCount());
      StatusOr<std::string> r =
          sh.trace ? Timed("read.label_at", &out->label_at_us,
                           [&] { return reader.LabelAt(pos); })
                   : reader.LabelAt(pos);
      out->read_us.push_back(MicrosSince(t0));
      if (!r.ok()) {
        out->Fail("LabelAt: " + r.status().ToString());
      } else if (sh.oracle != nullptr && r.value() != sh.oracle->LabelAt(pos)) {
        out->Mismatch("LabelAt(" + std::to_string(pos) + ")");
      }
    }
    ++out->reads;
  }
}

// Runs `spec.readers` reader threads for the lifetime of the object.
class ReaderGroup {
 public:
  ReaderGroup(const ReaderShared& sh, int n) : outs_(static_cast<size_t>(n)) {
    for (int i = 0; i < n; ++i) {
      threads_.emplace_back(ReaderLoop, std::cref(sh), i, std::cref(stop_),
                            &outs_[static_cast<size_t>(i)]);
    }
  }
  ~ReaderGroup() { Stop(); }
  ReaderGroup(const ReaderGroup&) = delete;
  ReaderGroup& operator=(const ReaderGroup&) = delete;

  void Stop() {
    stop_.store(true);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }
  void MergeInto(ReaderOut* total) const {
    for (const ReaderOut& o : outs_) total->Merge(o);
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<ReaderOut> outs_;
  std::vector<std::thread> threads_;
};

double CpuMicros() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// A field of /proc/self/status in KiB (VmRSS, VmHWM), or -1.
int64_t ProcStatusKb(const std::string& field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.compare(0, field.size() + 1, field + ":") == 0) {
      return std::stoll(line.substr(field.size() + 1));
    }
  }
  return -1;
}

// Resident memory the library adds during one phase of a round. The
// benchmark's own data (generated inputs, oracle, samples) is already
// resident when the phase starts, so it sits in the baseline: the
// constructor hands freed heap pages back to the kernel, resets the
// kernel's high-water mark and reads the resident size; PeakMb() is the
// high-water mark since then minus that baseline.
class RssPhase {
 public:
  RssPhase() {
    malloc_trim(0);
    int fd = open("/proc/self/clear_refs", O_WRONLY);
    ok_ = fd >= 0 && write(fd, "5", 1) == 1;
    if (fd >= 0) close(fd);
    base_kb_ = ProcStatusKb("VmRSS");
    ok_ = ok_ && base_kb_ >= 0;
  }
  bool ok() const { return ok_; }
  double PeakMb() const {
    return static_cast<double>(ProcStatusKb("VmHWM") - base_kb_) / 1024.0;
  }
  // What stays resident once freed pages are handed back.
  double ResidentMb() const {
    malloc_trim(0);
    return static_cast<double>(ProcStatusKb("VmRSS") - base_kb_) / 1024.0;
  }

 private:
  bool ok_ = false;
  int64_t base_kb_ = 0;
};

// Non-⊥ grammar edges over non-⊥ edges of the document's binary tree.
double CompressionRatio(const GrammarSnapshot& s) {
  return static_cast<double>(GrammarSize(s.grammar())) /
         static_cast<double>(s.element_count() - 1);
}

// ---------------------------------------------------------------------------
// The run.

struct Run {
  Spec spec;
  uint64_t seed = 0;
  bool trace = false;
  std::string workdir;
  double seconds = 0;

  Inputs in;  // the current round's inputs
  uint64_t first_digest = 0;
  std::vector<QueryCase> queries;

  // End-to-end samples.
  std::vector<double> setup_s, write_ms, flush_ms, reopen_s;
  // Peak resident memory the library added, per round: the largest of
  // its ingests, its serving phase (on top of the served document) and,
  // durable, its reopen.
  std::vector<double> peak_mb;
  double round_peak_mb = 0, service_mb = 0;
  ReaderOut reads;
  int64_t acked_ops = 0, attempted_ops = 0, failed_ops = 0;
  double writer_s = 0, read_phase_s = 0, cpu_us = 0;

  // Per-layer samples (traced runs), ms unless named _us.
  std::vector<double> parse_ms, ingest_repair_ms, clone_ms, apply_ms,
      encode_us, meta_ms, summary_ms, publish_ms;
  HistDelta pipeline_partition, pipeline_shard, pipeline_merge, pipeline_final,
      service_merge, journal_append, journal_fsync;

  // Exact counters per round (each round has its own inputs).
  std::vector<std::map<std::string, double>> round_counters;

  // The first round's counters: exact for a given seed.
  double FirstRound(const std::string& key) const {
    if (round_counters.empty()) return 0;
    auto it = round_counters[0].find(key);
    return it == round_counters[0].end() ? 0 : it->second;
  }

  std::vector<std::string> errors;
  int rounds = 0;

  void Error(const std::string& e) {
    if (errors.size() < 8) errors.push_back(e);
  }

  // `resident_mb`: what the library already held when the phase began.
  void Peak(const RssPhase& mem, double resident_mb = 0) {
    if (!mem.ok()) Error("cannot reset the resident-memory high-water mark");
    round_peak_mb = std::max(round_peak_mb, mem.PeakMb() + resident_mb);
  }

  ServiceOptions Options(const std::string& tag) const {
    ServiceOptions o;
    o.update.growth_trigger = kNeverTrigger;
    if (spec.sharded) {
      o.compress.num_threads = 4;
      o.compress.num_shards = 4;
    }
    if (spec.durable) {
      o.durable_dir = workdir + "/" + tag;
      o.journal.policy = FsyncPolicy::kEveryBatch;
    }
    return o;
  }

  // Traced runs replay the ingest outside-in before the real one.
  void ReplayIngest() {
    obs::TraceSpan span("bench.setup_replay", "bench");
    Clock::time_point t0 = Clock::now();
    StatusOr<XmlTree> xml = [&] {
      obs::TraceSpan s("xml.parse", "bench");
      return ParseXml(in.seed_xml);
    }();
    parse_ms.push_back(MicrosSince(t0) / 1e3);
    if (!xml.ok() || spec.sharded) return;  // pipeline phases: histograms
    LabelTable labels;
    Tree bin = EncodeBinary(xml.value(), &labels);
    GrammarRepairOptions ro = CompressOptions().repair;
    Clock::time_point t1 = Clock::now();
    {
      obs::TraceSpan s("repair.ingest", "bench");
      GrammarRePair(Grammar::ForTree(std::move(bin), std::move(labels)), ro);
    }
    ingest_repair_ms.push_back(MicrosSince(t1) / 1e3);
  }

  // Ingests the current round's document, timed into setup_s.
  std::unique_ptr<DocumentService> Ingest(const std::string& tag) {
    if (trace) ReplayIngest();
    if (spec.durable) std::filesystem::remove_all(Options(tag).durable_dir);
    RegistryView before = RegistryView::Take();
    RssPhase mem;
    Clock::time_point t0 = Clock::now();
    StatusOr<std::unique_ptr<DocumentService>> svc = [&] {
      obs::TraceSpan span("bench.setup", "bench");
      return DocumentService::FromXml(in.seed_xml, Options(tag));
    }();
    setup_s.push_back(MicrosSince(t0) / 1e6);
    Peak(mem);
    service_mb = mem.ResidentMb();
    RegistryView after = RegistryView::Take();
    pipeline_partition.Add(before, after, "pipeline.partition_us");
    pipeline_shard.Add(before, after, "pipeline.shard_us");
    pipeline_merge.Add(before, after, "pipeline.merge_us");
    pipeline_final.Add(before, after, "pipeline.final_us");
    if (!svc.ok()) {
      Error("setup: " + svc.status().ToString());
      return nullptr;
    }
    return svc.take();
  }

  // Query-mix work counters on one snapshot (exact for a fixed state).
  void QueryCounters(const GrammarSnapshot& s, std::map<std::string, double>* c) {
    QueryStats total;
    for (const QueryCase& q : queries) {
      StatusOr<QueryResult> r = s.RunQuery(q.parsed);
      if (!r.ok()) continue;
      total.rules_visited += r.value().stats.rules_visited;
      total.memo_entries += r.value().stats.memo_entries;
      total.memo_hits += r.value().stats.memo_hits;
    }
    (*c)["query.rules_visited"] = static_cast<double>(total.rules_visited);
    (*c)["query.memo_entries"] = static_cast<double>(total.memo_entries);
    (*c)["query.memo_hits"] = static_cast<double>(total.memo_hits);
  }

  // Outside-in replay of one write on the effective grammar pinned
  // just before the real Writer::Apply — the same input that write
  // clones, since merges only run inside the writer's own Flush calls.
  // With `record`, each leg is timed under a span named like its
  // per-layer metric; without, the same calls run untimed (a warm-up).
  void ReplayWrite(const DocumentService::Reader& pinned,
                   const std::vector<UpdateOp>& ops, bool record) {
    obs::TraceSpan span(record ? "bench.write_replay" : "bench.write_warmup",
                        "bench");
    auto leg = [&](const char* name, std::vector<double>* out, double unit_us,
                   auto&& fn) {
      if (!record) return fn();
      obs::TraceSpan s(name, "bench");
      Clock::time_point t = Clock::now();
      auto r = fn();
      out->push_back(MicrosSince(t) / unit_us);
      return r;
    };
    Grammar next = leg("grammar.clone", &clone_ms, 1e3,
                       [&] { return pinned.snapshot().grammar().Clone(); });
    bool applied = leg("update.apply", &apply_ms, 1e3, [&] {
      BatchUpdater bu(&next);
      for (const UpdateOp& op : ops) {
        if (!bu.Apply(op).ok()) return false;
      }
      bu.Finish();
      return true;
    });
    if (!applied) return;
    // What each leg builds outlives its span: the real write keeps the
    // encoded batch and publishes the snapshot, so neither pays for
    // freeing them, and the replayed legs must not either.
    std::string encoded = leg("store.encode", &encode_us, 1,
                              [&] { return EncodeBatch(ops, next.labels()); });
    RuleMeta meta = leg("grammar.rule_meta", &meta_ms, 1e3, [&] {
      return RuleMeta::Build(next, /*with_sizes=*/true);
    });
    RuleSummary summary = leg("grammar.rule_summary", &summary_ms, 1e3,
                              [&] { return RuleSummary::Build(next, meta); });
    auto snapshot = leg("service.publish", &publish_ms, 1e3,
                        [&] { return GrammarSnapshot::Make(std::move(next)); });
  }

  // One round: its own inputs, `setups` timed ingests (the last one
  // serves the round), then the workload's serving phase. Spreading the
  // ingests over the run keeps setup_s from hinging on one moment of
  // the machine's speed.
  void Round() {
    const int round = rounds;
    in = MakeInputs(spec, RoundSeed(seed, round));
    round_peak_mb = 0;
    if (round == 0) first_digest = in.digest;
    std::unique_ptr<DocumentService> svc;
    std::string tag;
    for (int i = 0; i < spec.setups; ++i) {
      if (svc != nullptr) {
        svc.reset();
        if (spec.durable) std::filesystem::remove_all(Options(tag).durable_dir);
      }
      tag = "round-" + std::to_string(round) + "-" + std::to_string(i);
      svc = Ingest(tag);
      if (svc == nullptr) return;
    }
    std::map<std::string, double> c;
    bool ok = spec.batches > 0 ? WritePhase(std::move(svc), tag, &c)
                               : ReadPhase(*svc, &c);
    if (!ok) return;
    ++rounds;
    round_counters.push_back(std::move(c));
    peak_mb.push_back(round_peak_mb);
  }

  // Closed-loop writes with Flush-driven merges under concurrent
  // readers, verification, and — durable — close, reopen and
  // verification again.
  bool WritePhase(std::unique_ptr<DocumentService> svc, const std::string& tag,
                  std::map<std::string, double>* counters) {
    const int round = rounds;
    std::map<std::string, double>& c = *counters;
    ZipfPositions zipf(in.doc_nodes);
    StatusOr<std::vector<std::vector<UpdateOp>>> batches = TranslateBatches(
        in, svc->OpenReader().snapshot().grammar().labels());
    if (!batches.ok()) {
      Error(batches.status().ToString());
      return false;
    }
    RegistryView before = RegistryView::Take();
    ReaderShared sh{&spec, svc.get(), &zipf, &queries, nullptr, nullptr,
                    trace, seed + static_cast<uint64_t>(round)};
    const int flushed = spec.batches - spec.tail_batches;
    RssPhase mem;
    double cpu0 = CpuMicros();
    Clock::time_point w0 = Clock::now();
    double paused_us = 0;  // bookkeeping excluded from writer time
    {
      ReaderGroup readers(sh, spec.readers);
      DocumentService::Writer writer = svc->OpenWriter();
      for (int b = 0; b < spec.batches; ++b) {
        const std::vector<UpdateOp>& ops = batches.value()[static_cast<size_t>(b)];
        // Every 4th batch is replayed outside-in: once untimed before
        // the real write and once timed after it. Each timed run of the
        // batch's work then follows an identical run on the same
        // grammar, so neither finds colder caches than the other.
        const bool sampled = trace && b % 4 == 0;
        std::optional<obs::TraceSpan> sample_span;
        std::optional<DocumentService::Reader> pinned;
        if (sampled) {
          Clock::time_point p = Clock::now();
          sample_span.emplace("bench.write_sample", "bench");
          pinned.emplace(svc->OpenReader());
          ReplayWrite(*pinned, ops, /*record=*/false);
          paused_us += MicrosSince(p);
        }
        attempted_ops += static_cast<int64_t>(ops.size());
        Clock::time_point t0 = Clock::now();
        Status st = [&] {
          obs::TraceSpan span("bench.write", "bench");
          return writer.Apply(ops);
        }();
        write_ms.push_back(MicrosSince(t0) / 1e3);
        if (sampled) {
          Clock::time_point p = Clock::now();
          ReplayWrite(*pinned, ops, /*record=*/true);
          pinned.reset();
          paused_us += MicrosSince(p);
        }
        sample_span.reset();
        if (!st.ok()) {
          failed_ops += static_cast<int64_t>(ops.size());
          Error("write batch " + std::to_string(b) + ": " + st.ToString());
          continue;
        }
        acked_ops += static_cast<int64_t>(ops.size());
        if ((b + 1) % spec.flush_every == 0 && b + 1 <= flushed) {
          Clock::time_point f0 = Clock::now();
          Status fs = [&] {
            obs::TraceSpan span("bench.flush", "bench");
            return svc->Flush();
          }();
          flush_ms.push_back(MicrosSince(f0) / 1e3);
          if (!fs.ok()) Error("flush: " + fs.ToString());
          if (b + 1 == flushed) {
            Clock::time_point p = Clock::now();
            DocumentService::Reader r = svc->OpenReader();
            c["compression_ratio"] = CompressionRatio(r.snapshot());
            if (spec.tail_batches > 0) {
              StatusOr<std::string> xml = r.ToXml();
              if (!xml.ok() || xml.value() != in.flushed_xml) {
                Error("flushed document diverged from the tree replay");
              }
            }
            paused_us += MicrosSince(p);
          }
        }
      }
      writer_s += (MicrosSince(w0) - paused_us) / 1e6;
      readers.Stop();
      read_phase_s += MicrosSince(w0) / 1e6;
      cpu_us += CpuMicros() - cpu0;
      Peak(mem, service_mb);
      readers.MergeInto(&reads);
    }

    StatusOr<std::string> served = [&] {
      obs::TraceSpan span("bench.verify", "bench");
      return svc->OpenReader().ToXml();
    }();
    if (!served.ok() || served.value() != in.final_xml) {
      Error("served document diverged from the tree replay");
    }
    QueryCounters(svc->OpenReader().snapshot(), &c);
    if (spec.durable) {
      ServiceOptions o = Options(tag);
      svc.reset();  // clean close
      RssPhase reopen_mem;
      Clock::time_point t0 = Clock::now();
      StatusOr<std::unique_ptr<DocumentService>> reopened = [&] {
        obs::TraceSpan span("bench.reopen", "bench");
        return DocumentService::Open(o);
      }();
      reopen_s.push_back(MicrosSince(t0) / 1e6);
      Peak(reopen_mem);
      if (!reopened.ok()) {
        Error("reopen: " + reopened.status().ToString());
      } else {
        StatusOr<std::string> xml = reopened.value()->OpenReader().ToXml();
        if (!xml.ok() || xml.value() != in.final_xml) {
          Error("reopened document diverged from the tree replay");
        }
      }
      if (reopened.ok()) reopened.value().reset();
      std::filesystem::remove_all(o.durable_dir);
    }
    svc.reset();

    RegistryView after = RegistryView::Take();
    service_merge.Add(before, after, "service.merge_us");
    journal_append.Add(before, after, "store.journal.append_us");
    journal_fsync.Add(before, after, "store.journal.fsync_us");
    auto delta = [&](const char* name) {
      return static_cast<double>(after.Value(name) - before.Value(name));
    };
    c["repair.rounds"] = delta("repair.rounds");
    c["repair.rules_rescanned"] = delta("repair.rules_rescanned");
    c["repair.replacements"] = delta("repair.replacements");
    c["service.merges"] = delta("service.merges");
    c["store.fsyncs"] = delta("store.journal.fsyncs");
    c["store.journal_bytes"] = delta("store.journal.append_bytes");
    c["store.replayed_batches"] = delta("store.journal.replayed_batches");
    return true;
  }

  // The read-only workload: readers serve the round's document for
  // read_slice_s, every answer checked against the oracle.
  bool ReadPhase(const DocumentService& svc,
                 std::map<std::string, double>* counters) {
    std::map<std::string, double>& c = *counters;
    ZipfPositions zipf(in.doc_nodes);
    DocumentService::Reader pinned = svc.OpenReader();
    const GrammarSnapshot& snap = pinned.snapshot();
    StatusOr<Tree> full = Value(snap.grammar());
    if (!full.ok()) {
      Error("oracle decompression: " + full.status().ToString());
      return false;
    }
    TreeOracle oracle(full.value(), snap.grammar().labels());
    StatusOr<std::string> served = pinned.ToXml();
    if (!served.ok() || served.value() != in.final_xml) {
      Error("served document diverged from the ingested XML");
    }
    for (QueryCase& q : queries) q.expected = oracle.Evaluate(q.parsed);
    // FindElement cases: (tag, k) drawn from the oracle's occurrences.
    std::vector<std::pair<std::string, int64_t>> finds;
    std::vector<const std::string*> tags;
    for (const auto& [tag, pos] : oracle.by_tag()) tags.push_back(&tag);
    Rng rng(seed * 31 + 5);
    for (int i = 0; i < 1024; ++i) {
      const std::string& tag = *tags[rng.Below(tags.size())];
      int64_t n = static_cast<int64_t>(oracle.by_tag().at(tag).size());
      finds.emplace_back(tag, 1 + static_cast<int64_t>(rng.Below(
                                      static_cast<uint64_t>(std::min<int64_t>(n, 64)))));
    }
    c["compression_ratio"] = CompressionRatio(snap);
    QueryCounters(snap, &c);
    RegistryView before = RegistryView::Take();
    ReaderShared sh{&spec, &svc, &zipf, &queries, &oracle, &finds, trace,
                    RoundSeed(seed, rounds)};
    RssPhase mem;
    double cpu0 = CpuMicros();
    Clock::time_point t0 = Clock::now();
    {
      ReaderGroup readers(sh, spec.readers);
      std::this_thread::sleep_for(std::chrono::duration<double>(spec.read_slice_s));
      readers.Stop();
      read_phase_s += MicrosSince(t0) / 1e6;
      cpu_us += CpuMicros() - cpu0;
      Peak(mem, service_mb);
      readers.MergeInto(&reads);
    }
    RegistryView after = RegistryView::Take();
    for (const char* name : {"repair.rounds", "repair.rules_rescanned",
                             "repair.replacements", "service.merges"}) {
      c[name] = static_cast<double>(after.Value(name) - before.Value(name));
    }
    c["store.fsyncs"] = 0;
    c["store.journal_bytes"] = 0;
    c["store.replayed_batches"] = 0;
    return true;
  }

  void Execute() {
    for (const std::string& text : spec.queries) {
      StatusOr<Query> q = Query::Parse(text);
      if (!q.ok()) {
        Error("query " + text + ": " + q.status().ToString());
        return;
      }
      queries.push_back(QueryCase{text, q.take(), {}});
    }
    Clock::time_point start = Clock::now();
    while (errors.empty() &&
           (rounds < spec.min_rounds || MicrosSince(start) / 1e6 < seconds)) {
      Round();
    }
  }
};

// ---------------------------------------------------------------------------
// Output.

void JsonMetrics(std::string* out, const std::map<std::string, Metric>& m) {
  *out += "{";
  bool first = true;
  for (const auto& [name, v] : m) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"n\": %" PRId64 "}",
                  first ? "" : ", ", name.c_str(), v.value, v.unit.c_str(), v.n);
    *out += buf;
    first = false;
  }
  *out += "}";
}

std::string JsonString(const std::string& s) {
  return "\"" + JsonEscape(s) + "\"";
}

std::map<std::string, Metric> EndToEnd(const Run& r) {
  std::map<std::string, Metric> m;
  auto timing = [&](const char* p50, const char* p99, const std::vector<double>& v,
                    const char* unit) {
    m[p50] = {Percentile(v, 0.5), unit, static_cast<int64_t>(v.size())};
    if (p99 != nullptr) {
      m[p99] = {Percentile(v, 0.99), unit, static_cast<int64_t>(v.size())};
    }
  };
  const int64_t ops = r.acked_ops + r.reads.reads + r.reads.queries;
  timing("setup_s", nullptr, r.setup_s, "s");
  timing("read_p50_us", "read_p99_us", r.reads.read_us, "us");
  timing("query_p50_us", "query_p99_us", r.reads.query_us, "us");
  m["reads_per_s"] = {static_cast<double>(r.reads.reads + r.reads.queries) /
                          std::max(r.read_phase_s, 1e-9),
                      "1/s", r.reads.reads + r.reads.queries};
  std::vector<double> ratios;
  for (const auto& c : r.round_counters) ratios.push_back(c.at("compression_ratio"));
  timing("compression_ratio", nullptr, ratios, "ratio");
  timing("peak_rss_mb", nullptr, r.peak_mb, "MB");
  m["cpu_us_per_op"] = {r.cpu_us / static_cast<double>(std::max<int64_t>(ops, 1)),
                        "us", ops};
  m["cpu_s"] = {r.cpu_us / 1e6, "s", 0};  // getrusage, serving phases only
  m["failed_ops_frac"] = {
      static_cast<double>(r.failed_ops + r.reads.failed) /
          static_cast<double>(std::max<int64_t>(
              r.attempted_ops + r.reads.reads + r.reads.queries, 1)),
      "ratio", r.attempted_ops + r.reads.reads + r.reads.queries};
  if (r.spec.batches > 0) {
    timing("write_p50_ms", "write_p99_ms", r.write_ms, "ms");
    timing("flush_p50_ms", nullptr, r.flush_ms, "ms");
    m["write_ops_per_s"] = {static_cast<double>(r.acked_ops) /
                                std::max(r.writer_s, 1e-9),
                            "1/s", r.acked_ops};
  }
  if (r.spec.durable) timing("reopen_s", nullptr, r.reopen_s, "s");
  return m;
}

std::map<std::string, Metric> Layers(const Run& r) {
  std::map<std::string, Metric> m;
  auto med = [&](const char* name, const std::vector<double>& v, const char* unit) {
    m[name] = {Percentile(v, 0.5), unit, static_cast<int64_t>(v.size())};
  };
  auto mean = [&](const char* name, const HistDelta& h) {
    m[name] = {h.MeanMs(), "ms", h.count};
  };
  med("xml.parse_ms", r.parse_ms, "ms");
  med("repair.ingest_ms", r.ingest_repair_ms, "ms");
  mean("pipeline.partition_ms", r.pipeline_partition);
  mean("pipeline.shard_ms", r.pipeline_shard);
  mean("pipeline.merge_ms", r.pipeline_merge);
  mean("pipeline.final_ms", r.pipeline_final);
  med("grammar.clone_ms", r.clone_ms, "ms");
  med("update.apply_ms", r.apply_ms, "ms");
  med("store.encode_us", r.encode_us, "us");
  med("grammar.rule_meta_ms", r.meta_ms, "ms");
  med("grammar.rule_summary_ms", r.summary_ms, "ms");
  med("service.publish_ms", r.publish_ms, "ms");
  mean("service.merge_ms", r.service_merge);
  mean("store.append_ms", r.journal_append);
  mean("store.fsync_ms", r.journal_fsync);
  med("service.open_reader_us", r.reads.open_us, "us");
  med("read.label_at_us", r.reads.label_at_us, "us");
  med("read.find_element_us", r.reads.find_us, "us");
  med("query.parse_us", r.reads.parse_us, "us");
  med("query.eval_us", r.reads.eval_us, "us");
  auto counter = [&](const char* name, const char* key) {
    m[name] = {r.FirstRound(key), "count", 0};
  };
  counter("repair.rounds", "repair.rounds");
  counter("repair.rules_rescanned", "repair.rules_rescanned");
  counter("repair.replacements", "repair.replacements");
  counter("service.merges", "service.merges");
  counter("store.fsyncs", "store.fsyncs");
  counter("store.replayed_batches", "store.replayed_batches");
  counter("query.rules_visited", "query.rules_visited");
  counter("query.memo_entries", "query.memo_entries");
  counter("query.memo_hits", "query.memo_hits");
  double ops_per_round = static_cast<double>(r.spec.batches * r.spec.batch_ops);
  m["store.journal_bytes_per_op"] = {
      ops_per_round > 0 ? r.FirstRound("store.journal_bytes") / ops_per_round : 0,
      "B/op", 0};
  double hits = m["query.memo_hits"].value;
  double entries = m["query.memo_entries"].value;
  m["query.memo_hit_ratio"] = {hits + entries > 0 ? hits / (hits + entries) : 0,
                               "ratio", 0};
  return m;
}

void EmitResult(const Run& r) {
  const int64_t attempted = r.attempted_ops + r.reads.reads + r.reads.queries;
  const int64_t failed = r.failed_ops + r.reads.failed;
  std::vector<std::string> errors = r.errors;
  if (r.reads.mismatches > 0) {
    errors.push_back(std::to_string(r.reads.mismatches) +
                     " read answers differ from the oracle, first: " +
                     r.reads.first_error);
  } else if (r.reads.failed > 0) {
    errors.push_back(std::to_string(r.reads.failed) +
                     " reads failed, first: " + r.reads.first_error);
  }
  std::string out = "{\"workload\": " + JsonString(r.spec.name) +
                    ", \"seed\": " + std::to_string(r.seed) +
                    ", \"trace\": " + (r.trace ? "1" : "0") +
                    ", \"correct\": " + (errors.empty() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"rounds\": " + std::to_string(r.rounds) +
                    ", \"errors\": [";
  for (size_t i = 0; i < errors.size(); ++i) {
    out += (i ? ", " : "") + JsonString(errors[i]);
  }
  out += "], \"end_to_end\": ";
  JsonMetrics(&out, EndToEnd(r));
  out += ", \"per_layer\": ";
  JsonMetrics(&out, r.trace ? Layers(r) : std::map<std::string, Metric>{});
  out += ", \"round_counters\": [";
  for (size_t i = 0; i < r.round_counters.size(); ++i) {
    out += i ? ", {" : "{";
    bool first = true;
    for (const auto& [k, v] : r.round_counters[i]) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", first ? "" : ", ",
                    k.c_str(), v);
      out += buf;
      first = false;
    }
    out += "}";
  }
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016" PRIx64, r.first_digest);
  out += std::string("], \"inputs_digest\": \"") + digest + "\"}";
  std::printf("%s\n", out.c_str());
}

// Describes the first round's generated inputs of a workload for a
// seed: corpus, scale, sizes of the document and of its ingested grammar.
int Describe(const Spec& spec, uint64_t seed) {
  Inputs in = MakeInputs(spec, RoundSeed(seed, 0));
  ServiceOptions o;
  if (spec.sharded) {
    o.compress.num_threads = 4;
    o.compress.num_shards = 4;
  }
  StatusOr<std::unique_ptr<DocumentService>> svc =
      DocumentService::FromXml(in.seed_xml, o);
  if (!svc.ok()) {
    std::fprintf(stderr, "%s\n", svc.status().ToString().c_str());
    return 1;
  }
  const GrammarSnapshot& s = svc.value()->OpenReader().snapshot();
  GrammarStats gs = ComputeStats(s.grammar());
  std::string queries;
  for (const std::string& q : spec.queries) {
    queries += (queries.empty() ? "" : ", ") + JsonString(q);
  }
  std::printf(
      "{\"workload\": %s, \"seed\": %" PRIu64 ", \"corpus\": %s, \"scale\": %g, "
      "\"document_nodes\": %" PRId64 ", \"grammar_edges\": %" PRId64
      ", \"rules\": %" PRId64 ", \"readers\": %d, \"reads_per_query\": %d, "
      "\"batches_per_round\": %d, \"ops_per_batch\": %d, \"flush_every\": %d, "
      "\"unflushed_tail_batches\": %d, \"durable\": %s, \"ingest_shards\": %d, "
      "\"queries\": [%s]}\n",
      JsonString(spec.name).c_str(), seed,
      JsonString(InfoFor(spec.corpus).name).c_str(), spec.scale, in.doc_nodes,
      gs.edge_count, gs.rule_count, spec.readers, spec.reads_per_query,
      spec.batches, spec.batch_ops, spec.flush_every, spec.tail_batches,
      spec.durable ? "true" : "false", spec.sharded ? 4 : 1, queries.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  Run r;
  std::string workload = FlagString(argc, argv, "--workload", "");
  bool small = FlagBool(argc, argv, "--small");
  if (!MakeSpec(workload, small, &r.spec)) {
    std::fprintf(stderr, "unknown --workload=%s\n", workload.c_str());
    return 2;
  }
  r.seed = static_cast<uint64_t>(FlagInt(argc, argv, "--seed", 1));
  if (FlagBool(argc, argv, "--describe")) return Describe(r.spec, r.seed);
  r.seconds = FlagDouble(argc, argv, "--seconds", 10);
  r.trace = FlagInt(argc, argv, "--trace", 0) != 0;
  r.workdir = FlagString(argc, argv, "--workdir", "");
  if (r.workdir.empty()) {
    std::fprintf(stderr, "--workdir is required\n");
    return 2;
  }
  std::filesystem::create_directories(r.workdir);
  if (r.trace) {
    // The writer/main thread keeps every event; reader and merge
    // threads keep their most recent ones (a sample is enough for
    // medians, and it bounds the trace file).
    obs::SetTraceBufferCapacity(int64_t{1} << 17);
    obs::SetTraceEnabled(true);
    { obs::TraceSpan start("bench.start", "bench"); }
    obs::SetTraceBufferCapacity(int64_t{1} << 12);
  }
  r.Execute();
  if (r.trace) {
    obs::SetTraceEnabled(false);
    if (!obs::WriteChromeTrace(r.workdir + "/trace.json")) {
      r.Error("could not write the trace");
    }
  }
  EmitResult(r);
  return r.errors.empty() && r.reads.mismatches == 0 && r.reads.failed == 0
             ? 0
             : 1;
}

}  // namespace
}  // namespace slg

int main(int argc, char** argv) { return slg::Main(argc, argv); }
