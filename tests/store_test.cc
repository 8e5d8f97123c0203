// Crash-consistency proof obligations for the durable document store.
//
// The store is a sink: it persists a grammar lineage its owner keeps.
// These tests drive it the way DocumentService does — one lineage,
// single-threaded, through the library's shared transitions (ApplyOps
// for live batches, ReplayBatch + FoldJournal for recovery,
// RecompressDamaged for merges):
//
//  * crash matrix — a fault-free recording pass counts every
//    injectable I/O operation of a Create + batches + checkpoints +
//    close scenario; then, for every operation index and three crash
//    flavors (clean crash, torn+bit-flipped write, power loss dropping
//    unsynced bytes), the scenario is crashed there, reopened, and the
//    recovered grammar must be byte-identical (SerializeGrammar) to a
//    committed-prefix state — never a torn in-between;
//  * corruption sweep — every byte flip and every truncation of every
//    on-disk file must leave Open returning a Status (possibly
//    falling back a generation), never crashing, and any grammar it
//    does return must validate;
//  * fsync-policy equivalence — under the power-loss model, kNone /
//    kEveryN / kEveryBatch all recover committed prefixes, and
//    kEveryBatch never loses an acknowledged batch;
//  * warm-reopen determinism — close + reopen mid-workload yields the
//    same final grammar bytes as one continuous run, on all six
//    corpora.
//
// The committed-prefix chain is computed by a test-local mirror that
// applies each batch's *decoded* journal payload, where the lineage
// applies the caller's ops; the reference run asserts live == mirror
// at every step, which pins the live-apply == replay determinism the
// recovery guarantee rests on.

#include "src/store/durable_document.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/core/grammar_repair.h"
#include "src/datasets/generators.h"
#include "src/grammar/binary_format.h"
#include "src/grammar/stats.h"
#include "src/grammar/validate.h"
#include "src/service/document_service.h"
#include "src/store/crc32c.h"
#include "src/store/io.h"
#include "src/store/journal.h"
#include "src/store/snapshot.h"
#include "src/update/batch.h"
#include "src/workload/update_workload.h"
#include "src/xml/binary_encoding.h"
#include "src/xml/xml_tree.h"

namespace slg {
namespace {

// --------------------------------------------------------------------
// Filesystem scratch helpers.

void RemoveTree(const std::string& dir) {
  StatusOr<std::vector<std::string>> names = ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : names.value()) {
      ::unlink(JoinPath(dir, name).c_str());
    }
  }
  ::rmdir(dir.c_str());
}

std::string NewDir(const std::string& tag) {
  static int counter = 0;
  std::string dir = ::testing::TempDir() + "slg_store_" + tag + "_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(++counter);
  RemoveTree(dir);
  return dir;
}

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  ASSERT_EQ(std::fclose(f), 0);
}

std::string ReadRaw(const std::string& path) {
  std::string bytes;
  Status s = ReadFileToString(path, &bytes);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return bytes;
}

// --------------------------------------------------------------------
// Lineage: one grammar lineage with the store as its sink — the
// service's write engine without the threads. Batches apply to a
// clone (ApplyOps), journal their EncodeBatch payload, and count
// toward the same adaptive trigger the service uses; a checkpoint
// seals the journal, merges (RecompressDamaged) and publishes the
// merged grammar as the next snapshot.

struct LineageOptions {
  DurableDocumentOptions store;
  UpdateOptions update;
};

LineageOptions StoreOpts(FaultInjector* fi = nullptr) {
  LineageOptions opts;
  opts.update.growth_trigger = 0.3;
  opts.update.min_checkpoint_ops = 4;
  opts.store.fault_injector = fi;
  return opts;
}

void AddDamage(const BatchEffect& e, std::vector<LabelId>* damage,
               std::unordered_set<LabelId>* seen) {
  for (LabelId r : e.damage) {
    if (seen->insert(r).second) damage->push_back(r);
  }
}

class Lineage {
 public:
  static StatusOr<Lineage> Create(const std::string& dir,
                                  const Grammar& start,
                                  const LineageOptions& opts) {
    StatusOr<DurableDocument> doc =
        DurableDocument::Create(dir, start, opts.store);
    if (!doc.ok()) return doc.status();
    return Lineage(doc.take(), start.Clone(), opts);
  }

  // Recovery as DocumentService::Open does it: the store folds sealed
  // journals with FoldJournal, the active journal's batches replay
  // onto the base with ReplayBatch.
  static StatusOr<Lineage> Open(const std::string& dir,
                                const LineageOptions& opts) {
    DurableDocument::Recovered rec;
    StatusOr<DurableDocument> doc = DurableDocument::Open(
        dir, opts.store,
        [&opts](Grammar base, const std::vector<std::string>& batches) {
          return FoldJournal(std::move(base), batches, opts.update);
        },
        &rec);
    if (!doc.ok()) return doc.status();
    Lineage d(doc.take(), std::move(rec.base), opts);
    for (const std::string& encoded : rec.batches) {
      StatusOr<BatchEffect> e = ReplayBatch(&d.g_, encoded);
      if (!e.ok()) return Status::DataLoss(e.status().message());
      d.Note(e.value());
    }
    return d;
  }

  Status Apply(const std::vector<UpdateOp>& ops) {
    Grammar next = g_.Clone();
    StatusOr<BatchEffect> e = ApplyOps(&next, ops);
    if (!e.ok()) return e.status();
    SLG_RETURN_IF_ERROR(doc_.AppendBatch(EncodeBatch(ops, next.labels())));
    g_ = std::move(next);
    Note(e.value());
    if (opts_.update.growth_trigger > 0 &&
        overlay_ops_ >= opts_.update.min_checkpoint_ops &&
        static_cast<double>(overlay_edges_) >
            opts_.update.growth_trigger * static_cast<double>(base_edges_)) {
      return Checkpoint();
    }
    return Status::Ok();
  }

  Status Checkpoint() {
    SLG_RETURN_IF_ERROR(doc_.Seal());
    g_ = RecompressDamaged(std::move(g_), damage_, opts_.update).grammar;
    ResetOverlay();
    return doc_.PublishSnapshot(g_);
  }

  const Grammar& grammar() const { return g_; }
  DurableDocument& doc() { return doc_; }
  Status Close() { return doc_.Close(); }

 private:
  Lineage(DurableDocument doc, Grammar g, const LineageOptions& opts)
      : doc_(std::move(doc)), g_(std::move(g)), opts_(opts) {
    ResetOverlay();
  }

  void Note(const BatchEffect& e) {
    AddDamage(e, &damage_, &seen_);
    overlay_edges_ += e.edges_added;
    overlay_ops_ += e.ops;
  }

  void ResetOverlay() {
    damage_.clear();
    seen_.clear();
    overlay_edges_ = 0;
    overlay_ops_ = 0;
    base_edges_ = ComputeStats(g_).edge_count;
  }

  DurableDocument doc_;
  Grammar g_;
  LineageOptions opts_;
  std::vector<LabelId> damage_;
  std::unordered_set<LabelId> seen_;
  int64_t base_edges_ = 0;
  int64_t overlay_edges_ = 0;
  int64_t overlay_ops_ = 0;
};

// --------------------------------------------------------------------
// Scenario: a starting grammar plus a batched workload with one
// explicit checkpoint, shared by the crash-matrix and policy tests.

struct Scenario {
  Grammar start;
  std::vector<std::vector<UpdateOp>> batches;
  int checkpoint_after = -1;  // explicit Checkpoint() after this batch
  int NumSteps() const {
    return static_cast<int>(batches.size()) + (checkpoint_after >= 0 ? 1 : 0);
  }
};

void MakeScenario(Corpus corpus, double scale, int num_ops, int batch_size,
                  uint64_t seed, Scenario* sc) {
  XmlTree xml = GenerateCorpus(corpus, scale);
  LabelTable labels;
  Tree bin = EncodeBinary(xml, &labels);
  WorkloadOptions wopts;
  wopts.num_ops = num_ops;
  wopts.seed = seed;
  wopts.rename_fraction = 0.15;  // exercise the rename leg of the codec
  UpdateWorkload w = MakeUpdateWorkload(bin, labels, wopts);
  GrammarRepairOptions ropts;
  ropts.repair.require_positive_savings = true;
  sc->start =
      GrammarRePair(Grammar::ForTree(std::move(w.seed), labels), ropts)
          .grammar;
  for (size_t at = 0; at < w.ops.size(); at += batch_size) {
    size_t end = std::min(w.ops.size(), at + batch_size);
    sc->batches.emplace_back(w.ops.begin() + at, w.ops.begin() + end);
  }
  sc->checkpoint_after = static_cast<int>(sc->batches.size()) / 2;
}

struct RunOutcome {
  bool create_ok = false;
  int acked = 0;  // steps (Apply / Checkpoint) that returned Ok
};

RunOutcome RunScenario(const std::string& dir, const Scenario& sc,
                       const LineageOptions& opts) {
  RunOutcome out;
  StatusOr<Lineage> created = Lineage::Create(dir, sc.start, opts);
  if (!created.ok()) return out;
  out.create_ok = true;
  Lineage d = created.take();
  for (size_t i = 0; i < sc.batches.size(); ++i) {
    if (!d.Apply(sc.batches[i]).ok()) return out;
    ++out.acked;
    if (static_cast<int>(i) == sc.checkpoint_after) {
      if (!d.Checkpoint().ok()) return out;
      ++out.acked;
    }
  }
  d.Close();
  return out;
}

// --------------------------------------------------------------------
// Mirror: replays each batch's journal payload (ReplayBatch) and
// rotates with the same merge step, used to enumerate every
// committed-prefix state a crash may recover to.

class MirrorDoc {
 public:
  MirrorDoc(Grammar g, const LineageOptions& opts)
      : g_(std::move(g)), opts_(opts) {}

  std::string Encode(const std::vector<UpdateOp>& ops) {
    return EncodeBatch(ops, g_.labels());
  }

  Status ApplyEncoded(const std::string& encoded) {
    StatusOr<BatchEffect> e = ReplayBatch(&g_, encoded);
    if (!e.ok()) return e.status();
    AddDamage(e.value(), &damage_, &seen_);
    return Status::Ok();
  }

  void Rotate() {
    g_ = RecompressDamaged(std::move(g_), damage_, opts_.update).grammar;
    damage_.clear();
    seen_.clear();
  }

  std::string Bytes() const { return SerializeGrammar(g_); }

 private:
  Grammar g_;
  LineageOptions opts_;
  std::vector<LabelId> damage_;
  std::unordered_set<LabelId> seen_;
};

struct Reference {
  // Every committed-prefix state, in commit order: after Create, then
  // after each batch commit and each rotation.
  std::vector<std::string> chain;
  // chain index reached after step s completes (index 0 = after
  // Create); size NumSteps() + 1.
  std::vector<int> pos_after_step;
};

void BuildReference(const Scenario& sc, Reference* ref) {
  std::string dir = NewDir("ref");
  LineageOptions opts = StoreOpts();
  StatusOr<Lineage> created = Lineage::Create(dir, sc.start, opts);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  Lineage d = created.take();
  MirrorDoc mirror(sc.start.Clone(), opts);
  ref->chain.push_back(SerializeGrammar(d.grammar()));
  ASSERT_EQ(ref->chain.back(), mirror.Bytes());
  ref->pos_after_step.push_back(0);
  int64_t gen = d.doc().generation();
  int rotations = 0;
  for (size_t i = 0; i < sc.batches.size(); ++i) {
    std::string encoded = mirror.Encode(sc.batches[i]);
    Status applied = d.Apply(sc.batches[i]);
    ASSERT_TRUE(applied.ok()) << applied.ToString();
    ASSERT_TRUE(mirror.ApplyEncoded(encoded).ok());
    ref->chain.push_back(mirror.Bytes());
    if (d.doc().generation() != gen) {
      gen = d.doc().generation();
      mirror.Rotate();
      ref->chain.push_back(mirror.Bytes());
      ++rotations;
    }
    // The load-bearing assertion: the live grammar is byte-identical
    // to the mirror's replay of its own journal encoding, at every
    // step — this is exactly why recovery reproduces live states.
    ASSERT_EQ(SerializeGrammar(d.grammar()), ref->chain.back())
        << "live and mirrored state diverge after batch " << i;
    ref->pos_after_step.push_back(static_cast<int>(ref->chain.size()) - 1);
    if (static_cast<int>(i) == sc.checkpoint_after) {
      Status cp = d.Checkpoint();
      ASSERT_TRUE(cp.ok()) << cp.ToString();
      gen = d.doc().generation();
      mirror.Rotate();
      ref->chain.push_back(mirror.Bytes());
      ++rotations;
      ASSERT_EQ(SerializeGrammar(d.grammar()), ref->chain.back());
      ref->pos_after_step.push_back(static_cast<int>(ref->chain.size()) - 1);
    }
  }
  EXPECT_GE(rotations, 2) << "scenario too tame: the adaptive trigger "
                             "never fired on top of the explicit checkpoint";
  EXPECT_TRUE(d.Close().ok());
  RemoveTree(dir);
}

// Asserts `got` matches some chain state in [lo, hi].
void ExpectCommittedPrefix(const Reference& ref, const std::string& got,
                           int lo, int hi, const std::string& context) {
  for (int j = lo; j <= hi; ++j) {
    if (ref.chain[static_cast<size_t>(j)] == got) return;
  }
  ADD_FAILURE() << context << ": recovered grammar matches no committed "
                << "prefix state in chain[" << lo << ".." << hi << "]";
}

// --------------------------------------------------------------------
// Crash matrix.

TEST(DurableDocumentCrashMatrix, EveryCrashPointRecoversCommittedPrefix) {
  Scenario sc;
  MakeScenario(Corpus::kExiWeblog, 0.02, 24, 3, 11, &sc);
  Reference ref;
  ASSERT_NO_FATAL_FAILURE(BuildReference(sc, &ref));
  const int S = sc.NumSteps();

  // Recording pass: enumerate the injection domain.
  FaultInjector counter;
  {
    std::string dir = NewDir("count");
    RunOutcome r = RunScenario(dir, sc, StoreOpts(&counter));
    ASSERT_TRUE(r.create_ok);
    ASSERT_EQ(r.acked, S);
    RemoveTree(dir);
  }
  const int64_t total_ops = counter.ops_seen();
  ASSERT_GT(total_ops, 30) << "scenario exercises too few I/O points";

  struct Mode {
    const char* name;
    double fraction;
    bool flip;
    bool drop;
  };
  const Mode kModes[] = {
      {"crash", 1.0, false, false},
      {"torn+flip", 0.5, true, false},
      {"powerloss", 1.0, false, true},
  };
  for (const Mode& mode : kModes) {
    for (int64_t k = 0; k < total_ops; ++k) {
      FaultInjector::Plan plan;
      plan.crash_at = k;
      plan.short_write_fraction = mode.fraction;
      plan.flip_bit = mode.flip;
      plan.drop_unsynced = mode.drop;
      FaultInjector fi(plan);
      std::string dir = NewDir("crash");
      RunOutcome r = RunScenario(dir, sc, StoreOpts(&fi));
      ASSERT_TRUE(fi.crashed()) << mode.name << " k=" << k;
      const std::string context =
          std::string(mode.name) + " at op " + std::to_string(k);

      StatusOr<Lineage> opened = Lineage::Open(dir, StoreOpts());
      if (!r.create_ok) {
        // Create died before acknowledging: either nothing durable
        // exists yet, or the empty generation-1 document survives.
        if (opened.ok()) {
          EXPECT_EQ(SerializeGrammar(opened.value().grammar()), ref.chain[0])
              << context;
        } else {
          EXPECT_EQ(opened.status().code(), StatusCode::kNotFound) << context;
        }
        RemoveTree(dir);
        continue;
      }
      ASSERT_TRUE(opened.ok())
          << context << ": " << opened.status().ToString();
      Lineage d = opened.take();
      Status valid = Validate(d.grammar());
      EXPECT_TRUE(valid.ok()) << context << ": " << valid.ToString();
      const int lo = ref.pos_after_step[static_cast<size_t>(r.acked)];
      const int hi =
          ref.pos_after_step[static_cast<size_t>(std::min(r.acked + 1, S))];
      ExpectCommittedPrefix(ref, SerializeGrammar(d.grammar()), lo, hi,
                            context);
      // Subsample: the recovered document must be fully usable.
      if (k % 7 == 0) {
        Status usable = d.Checkpoint();
        EXPECT_TRUE(usable.ok()) << context << ": " << usable.ToString();
      }
      EXPECT_TRUE(d.Close().ok()) << context;
      RemoveTree(dir);
    }
  }
}

// --------------------------------------------------------------------
// Fsync-policy equivalence under the power-loss model.

TEST(DurableDocumentFsyncPolicy, AllPoliciesRecoverCommittedPrefixes) {
  Scenario sc;
  MakeScenario(Corpus::kMedline, 0.02, 18, 3, 23, &sc);
  Reference ref;
  ASSERT_NO_FATAL_FAILURE(BuildReference(sc, &ref));
  const int S = sc.NumSteps();

  struct Policy {
    const char* name;
    FsyncPolicy policy;
    int every_n;
  };
  const Policy kPolicies[] = {
      {"none", FsyncPolicy::kNone, 0},
      {"every-batch", FsyncPolicy::kEveryBatch, 0},
      {"every-3", FsyncPolicy::kEveryN, 3},
  };
  for (const Policy& p : kPolicies) {
    LineageOptions base = StoreOpts();
    base.store.journal.policy = p.policy;
    if (p.every_n > 0) base.store.journal.every_n = p.every_n;

    FaultInjector counter;
    {
      LineageOptions opts = base;
      opts.store.fault_injector = &counter;
      std::string dir = NewDir("pcount");
      RunOutcome r = RunScenario(dir, sc, opts);
      ASSERT_TRUE(r.create_ok && r.acked == S) << p.name;
      RemoveTree(dir);
    }
    for (int64_t k = 0; k < counter.ops_seen(); k += 2) {
      FaultInjector::Plan plan;
      plan.crash_at = k;
      plan.drop_unsynced = true;  // the model where policies differ
      FaultInjector fi(plan);
      LineageOptions opts = base;
      opts.store.fault_injector = &fi;
      std::string dir = NewDir("policy");
      RunOutcome r = RunScenario(dir, sc, opts);
      const std::string context =
          std::string("policy ") + p.name + " powerloss at op " +
          std::to_string(k);
      StatusOr<Lineage> opened = Lineage::Open(dir, StoreOpts());
      if (!r.create_ok) {
        if (opened.ok()) {
          EXPECT_EQ(SerializeGrammar(opened.value().grammar()), ref.chain[0])
              << context;
        }
        RemoveTree(dir);
        continue;
      }
      ASSERT_TRUE(opened.ok())
          << context << ": " << opened.status().ToString();
      std::string got = SerializeGrammar(opened.value().grammar());
      // Weaker policies may lose unsynced committed batches, but every
      // recovered state is still some committed prefix...
      const int hi =
          ref.pos_after_step[static_cast<size_t>(std::min(r.acked + 1, S))];
      ExpectCommittedPrefix(ref, got, 0, hi, context);
      // ...and with kEveryBatch an acknowledged step is never lost.
      if (p.policy == FsyncPolicy::kEveryBatch) {
        const int lo = ref.pos_after_step[static_cast<size_t>(r.acked)];
        ExpectCommittedPrefix(ref, got, lo, hi, context + " (durability)");
      }
      RemoveTree(dir);
    }
  }
}

// --------------------------------------------------------------------
// Corruption sweep: every byte flip, every truncation, of every file.

TEST(DurableDocumentCorruptionSweep, OpenNeverCrashesOnMangledFiles) {
  Scenario sc;
  MakeScenario(Corpus::kExiTelecomp, 0.015, 12, 3, 31, &sc);
  std::string dir = NewDir("sweep");
  {
    LineageOptions opts = StoreOpts();
    opts.update.growth_trigger = 0;  // rotate only at the explicit checkpoint
    StatusOr<Lineage> created = Lineage::Create(dir, sc.start, opts);
    ASSERT_TRUE(created.ok());
    Lineage d = created.take();
    for (size_t i = 0; i < sc.batches.size(); ++i) {
      ASSERT_TRUE(d.Apply(sc.batches[i]).ok());
      if (static_cast<int>(i) == sc.checkpoint_after) {
        ASSERT_TRUE(d.Checkpoint().ok());
      }
    }
    ASSERT_TRUE(d.Close().ok());
  }
  std::map<std::string, std::string> pristine;
  StatusOr<std::vector<std::string>> listing = ListDir(dir);
  ASSERT_TRUE(listing.ok());
  for (const std::string& name : listing.value()) {
    pristine[name] = ReadRaw(JoinPath(dir, name));
  }
  ASSERT_GE(pristine.size(), 3u);  // two generations of files at least

  auto restore_with = [&](const std::string& mutated_name,
                          const std::string& mutated_bytes) {
    RemoveTree(dir);
    ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
    for (const auto& [name, bytes] : pristine) {
      WriteRaw(JoinPath(dir, name),
               name == mutated_name ? mutated_bytes : bytes);
    }
  };
  auto check_open = [&](const std::string& context) {
    StatusOr<Lineage> opened = Lineage::Open(dir, StoreOpts());
    if (opened.ok()) {
      Status valid = Validate(opened.value().grammar());
      EXPECT_TRUE(valid.ok()) << context << ": " << valid.ToString();
    } else {
      StatusCode code = opened.status().code();
      EXPECT_TRUE(code == StatusCode::kNotFound ||
                  code == StatusCode::kDataLoss ||
                  code == StatusCode::kIoError ||
                  code == StatusCode::kInvalidArgument)
          << context << ": " << opened.status().ToString();
    }
  };

  for (const auto& [name, bytes] : pristine) {
    // Stride 1 for the small files the scenario is sized to produce;
    // degrade gracefully if a corpus tweak ever inflates them.
    const size_t stride = std::max<size_t>(1, bytes.size() / 2048);
    for (size_t at = 0; at < bytes.size(); at += stride) {
      std::string mangled = bytes;
      mangled[at] = static_cast<char>(mangled[at] ^ 0x10);
      restore_with(name, mangled);
      check_open("flip " + name + "[" + std::to_string(at) + "]");
    }
    for (size_t len = 0; len < bytes.size(); len += stride) {
      restore_with(name, bytes.substr(0, len));
      check_open("truncate " + name + " to " + std::to_string(len));
    }
  }
}

// --------------------------------------------------------------------
// Warm-reopen determinism, all six corpora.

TEST(DurableDocumentReopen, ReopenMidWorkloadIsByteIdenticalToContinuous) {
  for (const CorpusInfo& info : AllCorpora()) {
    Scenario sc;
    MakeScenario(info.id, 0.02, 20, 4, 40 + static_cast<uint64_t>(info.id),
                 &sc);
    sc.checkpoint_after = -1;  // adaptive rotations only

    std::string dir_a = NewDir("cont");
    StatusOr<Lineage> a = Lineage::Create(dir_a, sc.start, StoreOpts());
    ASSERT_TRUE(a.ok()) << info.name;
    for (const auto& batch : sc.batches) {
      ASSERT_TRUE(a.value().Apply(batch).ok()) << info.name;
    }
    std::string continuous = SerializeGrammar(a.value().grammar());
    ASSERT_TRUE(a.value().Close().ok());

    std::string dir_b = NewDir("split");
    const size_t half = sc.batches.size() / 2;
    {
      StatusOr<Lineage> b = Lineage::Create(dir_b, sc.start, StoreOpts());
      ASSERT_TRUE(b.ok()) << info.name;
      for (size_t i = 0; i < half; ++i) {
        ASSERT_TRUE(b.value().Apply(sc.batches[i]).ok()) << info.name;
      }
      ASSERT_TRUE(b.value().Close().ok());
    }
    StatusOr<Lineage> b = Lineage::Open(dir_b, StoreOpts());
    ASSERT_TRUE(b.ok()) << info.name << ": " << b.status().ToString();
    EXPECT_LE(b.value().doc().recovery_stats().batches_replayed,
              static_cast<int64_t>(half))
        << info.name;
    for (size_t i = half; i < sc.batches.size(); ++i) {
      ASSERT_TRUE(b.value().Apply(sc.batches[i]).ok()) << info.name;
    }
    EXPECT_EQ(SerializeGrammar(b.value().grammar()), continuous)
        << "reopen diverges from the continuous run on " << info.name;
    ASSERT_TRUE(b.value().Close().ok());
    RemoveTree(dir_a);
    RemoveTree(dir_b);
  }
}

// --------------------------------------------------------------------
// Snapshot generation fallback + self-healing.

TEST(DurableDocumentFallback, CorruptNewestSnapshotFallsBackAndHeals) {
  Scenario sc;
  MakeScenario(Corpus::kXMark, 0.02, 12, 3, 55, &sc);
  std::string dir = NewDir("fallback");
  std::string final_bytes;
  {
    LineageOptions opts = StoreOpts();
    opts.update.growth_trigger = 0;
    StatusOr<Lineage> created = Lineage::Create(dir, sc.start, opts);
    ASSERT_TRUE(created.ok());
    Lineage d = created.take();
    ASSERT_TRUE(d.Apply(sc.batches[0]).ok());
    ASSERT_TRUE(d.Apply(sc.batches[1]).ok());
    ASSERT_TRUE(d.Checkpoint().ok());
    ASSERT_TRUE(d.Apply(sc.batches[2]).ok());
    ASSERT_EQ(d.doc().generation(), 2);
    final_bytes = SerializeGrammar(d.grammar());
    ASSERT_TRUE(d.Close().ok());
  }
  // Mangle the newest snapshot; recovery must fall back to snapshot 1,
  // re-run the rotation recorded in journal 1, and land byte-identical
  // on the same state — healing snapshot 2 on the way.
  std::string snap2 = JoinPath(dir, SnapshotFileName(2));
  std::string bytes = ReadRaw(snap2);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xff);
  WriteRaw(snap2, bytes);

  StatusOr<Lineage> opened = Lineage::Open(dir, StoreOpts());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const RecoveryStats& stats = opened.value().doc().recovery_stats();
  EXPECT_EQ(stats.snapshots_skipped, 1);
  EXPECT_GE(stats.checkpoints_replayed, 1);
  EXPECT_EQ(SerializeGrammar(opened.value().grammar()), final_bytes);
  ASSERT_TRUE(opened.value().Close().ok());

  // The healed snapshot must decode on its own again.
  EXPECT_TRUE(DecodeSnapshot(ReadRaw(snap2)).ok());
  RemoveTree(dir);
}

// --------------------------------------------------------------------
// Rotation misuse: the store refuses a snapshot no seal asked for, and
// a second seal before the first one's snapshot.

TEST(DurableDocumentRotation, PublishRequiresExactlyOneSeal) {
  Scenario sc;
  MakeScenario(Corpus::kExiWeblog, 0.01, 4, 2, 91, &sc);
  std::string dir = NewDir("rotation");
  StatusOr<DurableDocument> created =
      DurableDocument::Create(dir, sc.start, StoreOpts().store);
  ASSERT_TRUE(created.ok());
  DurableDocument doc = created.take();
  EXPECT_EQ(doc.PublishSnapshot(sc.start).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(doc.Seal().ok());
  EXPECT_EQ(doc.Seal().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(doc.PublishSnapshot(sc.start).ok());
  EXPECT_EQ(doc.generation(), 2);
  EXPECT_FALSE(doc.poisoned());
  ASSERT_TRUE(doc.Close().ok());
  RemoveTree(dir);
}

// --------------------------------------------------------------------
// Label-lineage hygiene: the name-based payload carries batches onto a
// base whose table numbers labels differently — how the splice and
// recovery replay batches acknowledged against an older base.

TEST(DurableDocumentReplay, EncodedBatchCrossesLabelTableLineages) {
  Scenario sc;
  MakeScenario(Corpus::kExiWeblog, 0.01, 4, 2, 93, &sc);
  std::string dir = NewDir("lineage");
  StatusOr<DurableDocument> created =
      DurableDocument::Create(dir, sc.start, StoreOpts().store);
  ASSERT_TRUE(created.ok());
  DurableDocument doc = created.take();

  // A writer lineage that interned extra labels first: "fresh_tag" is
  // absent from the base's table and every foreign id after the
  // padding disagrees with the base's numbering — only the name-based
  // payload can cross.
  LabelTable foreign = sc.start.labels();
  foreign.Intern("lineage_padding", 2);
  std::vector<UpdateOp> rename(1);
  rename[0].kind = UpdateOp::Kind::kRename;
  rename[0].preorder = 1;
  rename[0].label = foreign.Intern("fresh_tag", 2);
  const std::string encoded = EncodeBatch(rename, foreign);

  Grammar live = sc.start.Clone();
  ASSERT_TRUE(ReplayBatch(&live, encoded).ok());
  EXPECT_NE(live.labels().Find("fresh_tag"), kNoLabel);
  // Only names the ops actually carry travel across.
  EXPECT_EQ(live.labels().Find("lineage_padding"), kNoLabel);
  ASSERT_TRUE(doc.AppendBatch(encoded).ok());
  ASSERT_TRUE(doc.Close().ok());

  StatusOr<Lineage> opened = Lineage::Open(dir, StoreOpts());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().doc().recovery_stats().batches_replayed, 1);
  EXPECT_EQ(SerializeGrammar(opened.value().grammar()),
            SerializeGrammar(live));
  ASSERT_TRUE(opened.value().Close().ok());
  RemoveTree(dir);
}

// --------------------------------------------------------------------
// Poisoning: a durability failure taints the handle, not the disk.

TEST(DurableDocumentPoison, IoFailurePoisonsHandleAndReopenRecovers) {
  Scenario sc;
  MakeScenario(Corpus::kNcbi, 0.02, 6, 3, 77, &sc);
  // Count Create's ops so the failure lands on the first journal
  // append of batch 1.
  FaultInjector counter;
  std::string probe = NewDir("poisonprobe");
  {
    StatusOr<Lineage> d =
        Lineage::Create(probe, sc.start, StoreOpts(&counter));
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE(d.value().Close().ok());
  }
  RemoveTree(probe);

  FaultInjector::Plan plan;
  plan.fail_at = counter.ops_seen() - 1;  // Close was counted too
  FaultInjector fi(plan);
  std::string dir = NewDir("poison");
  StatusOr<Lineage> created = Lineage::Create(dir, sc.start, StoreOpts(&fi));
  ASSERT_TRUE(created.ok());
  Lineage d = created.take();
  std::string committed = SerializeGrammar(d.grammar());

  Status failed = d.Apply(sc.batches[0]);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_TRUE(d.doc().poisoned());
  EXPECT_EQ(d.Apply(sc.batches[1]).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(d.Checkpoint().code(), StatusCode::kFailedPrecondition);
  d.Close();

  StatusOr<Lineage> opened = Lineage::Open(dir, StoreOpts());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_FALSE(opened.value().doc().poisoned());
  EXPECT_EQ(SerializeGrammar(opened.value().grammar()), committed);
  ASSERT_TRUE(opened.value().Apply(sc.batches[0]).ok());
  ASSERT_TRUE(opened.value().Close().ok());
  RemoveTree(dir);
}

// --------------------------------------------------------------------
// Journal unit tests: framing, torn tails, checkpoint markers.

TEST(Journal, ReplayReturnsCommittedBatchesAndDropsGarbageTail) {
  std::string dir = NewDir("wal");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  std::string path = JoinPath(dir, JournalFileName(1));
  {
    StatusOr<JournalWriter> w =
        JournalWriter::Create(path, JournalOptions{}, nullptr);
    ASSERT_TRUE(w.ok());
    JournalWriter writer = w.take();
    ASSERT_TRUE(writer.AppendBatch("batch-one").ok());
    ASSERT_TRUE(writer.AppendBatch("batch-two").ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  {
    StatusOr<JournalReplay> r = ReplayJournal(path);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().header_ok);
    ASSERT_EQ(r.value().batches.size(), 2u);
    EXPECT_EQ(r.value().batches[0], "batch-one");
    EXPECT_EQ(r.value().batches[1], "batch-two");
    EXPECT_FALSE(r.value().ends_with_checkpoint);
    EXPECT_FALSE(r.value().truncated_tail);
  }
  // Garbage appended after the last commit marker is cut, committed
  // batches survive.
  std::string pristine = ReadRaw(path);
  WriteRaw(path, pristine + "\x03\x07garbage-not-a-record");
  {
    StatusOr<JournalReplay> r = ReplayJournal(path);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value().batches.size(), 2u);
    EXPECT_TRUE(r.value().truncated_tail);
    EXPECT_EQ(r.value().valid_bytes, static_cast<int64_t>(pristine.size()));
  }
  // A torn commit marker drops exactly the last batch.
  WriteRaw(path, pristine.substr(0, pristine.size() - 3));
  {
    StatusOr<JournalReplay> r = ReplayJournal(path);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value().batches.size(), 1u);
    EXPECT_EQ(r.value().batches[0], "batch-one");
    EXPECT_TRUE(r.value().truncated_tail);
  }
  // A checkpoint marker ends the file and reports the next generation.
  WriteRaw(path, pristine);
  {
    StatusOr<JournalWriter> w =
        JournalWriter::OpenExisting(path, 2, JournalOptions{}, nullptr);
    ASSERT_TRUE(w.ok());
    JournalWriter writer = w.take();
    ASSERT_TRUE(writer.AppendCheckpoint(7).ok());
    ASSERT_TRUE(writer.Close().ok());
    StatusOr<JournalReplay> r = ReplayJournal(path);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value().batches.size(), 2u);
    EXPECT_TRUE(r.value().ends_with_checkpoint);
    EXPECT_EQ(r.value().next_generation, 7);
  }
  // A header that never became durable replays as empty.
  WriteRaw(path, pristine.substr(0, 5));
  {
    StatusOr<JournalReplay> r = ReplayJournal(path);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.value().header_ok);
    EXPECT_TRUE(r.value().batches.empty());
    EXPECT_EQ(r.value().valid_bytes, 0);
  }
  RemoveTree(dir);
}

TEST(Journal, BatchCodecRoundTripsAndRejectsRankMismatch) {
  LabelTable labels;
  LabelId leaf = labels.Intern("leaf", 0);
  Tree fragment;
  NodeId root = fragment.NewNode(labels.Intern("pair", 2));
  fragment.SetRoot(root);
  fragment.AppendChild(root, fragment.NewNode(leaf));
  fragment.AppendChild(root, fragment.NewNode(kNullLabel));

  std::vector<UpdateOp> ops(3);
  ops[0].kind = UpdateOp::Kind::kInsert;
  ops[0].preorder = 2;
  ops[0].fragment = fragment;
  ops[1].kind = UpdateOp::Kind::kDelete;
  ops[1].preorder = 4;
  ops[2].kind = UpdateOp::Kind::kRename;
  ops[2].preorder = 1;
  ops[2].label = labels.Intern("renamed", 2);

  std::string encoded = EncodeBatch(ops, labels);
  LabelTable fresh;  // decode against a table missing every name
  std::vector<UpdateOp> decoded;
  Status s = DecodeBatch(encoded, &fresh, &decoded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded[0].kind, UpdateOp::Kind::kInsert);
  EXPECT_EQ(decoded[0].preorder, 2);
  EXPECT_EQ(decoded[0].fragment.LiveCount(), 3);
  EXPECT_EQ(fresh.Name(decoded[0].fragment.label(decoded[0].fragment.root())),
            "pair");
  EXPECT_EQ(decoded[1].kind, UpdateOp::Kind::kDelete);
  EXPECT_EQ(decoded[2].kind, UpdateOp::Kind::kRename);
  EXPECT_EQ(fresh.Name(decoded[2].label), "renamed");
  EXPECT_EQ(fresh.Rank(decoded[2].label), 2);

  // Same payload against a table where "pair" is a leaf: the codec
  // must refuse (Intern would abort on the rank mismatch).
  LabelTable clashing;
  clashing.Intern("pair", 0);
  Status clash = DecodeBatch(encoded, &clashing, &decoded);
  EXPECT_EQ(clash.code(), StatusCode::kInvalidArgument);

  // Truncated payloads are malformed, not fatal.
  for (size_t len = 0; len < encoded.size(); len += 3) {
    Status torn = DecodeBatch(encoded.substr(0, len), &fresh, &decoded);
    EXPECT_FALSE(torn.ok()) << "prefix of length " << len << " decoded";
  }
}

// --------------------------------------------------------------------
// CRC32C known-answer and chaining tests.

TEST(Crc32c, KnownVectorsAndChaining) {
  // RFC 3720 test vector.
  EXPECT_EQ(Crc32c("123456789", 9), 0xe3069283u);
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8a9136aau);
  // Incremental computation chains through the crc parameter.
  uint32_t half = Crc32c("12345", 5);
  EXPECT_EQ(Crc32c("6789", 4, half), 0xe3069283u);
  EXPECT_NE(Crc32c("123456788", 9), 0xe3069283u);
}

}  // namespace
}  // namespace slg
