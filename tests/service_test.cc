// DocumentService: the concurrent serving layer's proof obligations.
//
//  * read-your-writes — after Writer::Apply returns Ok, a fresh reader
//    reflects the batch (version and content), whatever the merge
//    thread is doing;
//  * snapshot pinning — a reader taken before N merge cycles still
//    serves its exact original document afterwards (shared_ptr
//    reclamation keeps the superseded bases alive);
//  * equivalence — the document the service serves after racy
//    writer/reader/merge interleavings is byte-identical (ToXml) to a
//    single-threaded replay of the same ops on the plain binary tree,
//    and localized and full merges serve the same document;
//  * batch atomicity — a failed batch (or single-op convenience)
//    publishes nothing: same version, same bytes;
//  * durability composition — with durable_dir set, acked batches
//    survive destruction and Open() serves the same document; the
//    durable service recompresses exactly as often as the in-memory
//    one; and a crash at every injectable I/O point of a durable
//    service reopens to a committed-prefix state, while the live
//    grammar equals a replay of its own journal after every batch.
//
// The racy tests run readers on real threads against live writes and
// merges — they are the TSan subjects for the service layer.

#include "src/service/document_service.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/grammar_repair.h"
#include "src/datasets/generators.h"
#include "src/grammar/binary_format.h"
#include "src/obs/metrics.h"
#include "src/store/io.h"
#include "src/store/snapshot.h"
#include "src/workload/update_workload.h"
#include "src/xml/binary_encoding.h"
#include "src/xml/xml_writer.h"

namespace slg {
namespace {

constexpr const char* kDoc =
    "<log><entry><ip/><date/><status/></entry>"
    "<entry><ip/><date/><status/></entry>"
    "<entry><ip/><date/><status/></entry></log>";

std::string TreeToXml(const Tree& t, const LabelTable& labels) {
  StatusOr<XmlTree> xml = DecodeBinary(t, labels);
  SLG_CHECK(xml.ok());
  return WriteXml(xml.value(), {});
}

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
  std::string dir = ::testing::TempDir() + "slg_service_" + tag + "_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(++counter);
  RemoveTree(dir);
  return dir;
}

// A compressed seed plus a batched workload and its tree-side replay
// reference — the single-threaded ground truth the service must match.
struct Fixture {
  Grammar seed;
  Tree seed_tree;
  LabelTable labels;
  std::vector<std::vector<UpdateOp>> batches;

  std::string FinalXml() const {
    Tree t(seed_tree);
    for (const auto& batch : batches) {
      for (const UpdateOp& op : batch) ApplyOpToTree(&t, op);
    }
    return TreeToXml(t, labels);
  }
};

Fixture MakeFixture(Corpus corpus, double scale, int num_ops, int batch_size,
                    uint64_t seed) {
  XmlTree xml = GenerateCorpus(corpus, scale);
  LabelTable labels;
  Tree bin = EncodeBinary(xml, &labels);
  WorkloadOptions wopts;
  wopts.num_ops = num_ops;
  wopts.seed = seed;
  wopts.rename_fraction = 0.15;
  UpdateWorkload w = MakeUpdateWorkload(bin, labels, wopts);
  Fixture f;
  f.labels = labels;
  f.seed_tree = Tree(w.seed);
  GrammarRepairOptions ropts;
  ropts.repair.require_positive_savings = true;
  f.seed =
      GrammarRePair(Grammar::ForTree(std::move(w.seed), labels), ropts).grammar;
  for (size_t at = 0; at < w.ops.size();
       at += static_cast<size_t>(batch_size)) {
    size_t end = std::min(w.ops.size(), at + static_cast<size_t>(batch_size));
    f.batches.emplace_back(w.ops.begin() + at, w.ops.begin() + end);
  }
  return f;
}

ServiceOptions ManualMerge() {
  ServiceOptions opts;
  opts.update.growth_trigger = 0;  // merge only on Flush()
  return opts;
}

TEST(DocumentServiceTest, SingleWriterRoundTrip) {
  auto svc_or = DocumentService::FromXml(kDoc, ManualMerge());
  ASSERT_TRUE(svc_or.ok()) << svc_or.status().ToString();
  auto svc = svc_or.take();

  DocumentService::Reader r0 = svc->OpenReader();
  EXPECT_EQ(r0.version(), 0);
  EXPECT_EQ(r0.ToXml().value(), kDoc);
  EXPECT_EQ(r0.ElementCount(), 13);

  auto writer = svc->OpenWriter();
  auto pos = r0.FindElement("entry", 1);
  ASSERT_TRUE(pos.ok());
  ASSERT_TRUE(writer.InsertXmlBefore(pos.value(), "<entry><new/></entry>").ok());

  DocumentService::Reader r1 = svc->OpenReader();
  EXPECT_EQ(r1.version(), 1);
  EXPECT_EQ(r1.ElementCount(), 15);
  EXPECT_NE(r1.ToXml().value().find("<entry><new/></entry>"),
            std::string::npos);
  // The pinned pre-write reader still serves the original document.
  EXPECT_EQ(r0.version(), 0);
  EXPECT_EQ(r0.ToXml().value(), kDoc);

  auto pos2 = r1.FindElement("new", 1);
  ASSERT_TRUE(pos2.ok());
  EXPECT_EQ(r1.LabelAt(pos2.value()).value(), "new");
}

TEST(DocumentServiceTest, ReadYourWritesAfterEveryAck) {
  Fixture f = MakeFixture(Corpus::kExiWeblog, 0.02, 40, 4, 11);
  auto svc = DocumentService::FromGrammar(f.seed.Clone(), ManualMerge()).take();
  auto writer = svc->OpenWriter();

  Tree ref(f.seed_tree);
  int64_t acked = 0;
  for (const auto& batch : f.batches) {
    ASSERT_TRUE(writer.Apply(batch).ok());
    ++acked;
    for (const UpdateOp& op : batch) ApplyOpToTree(&ref, op);
    DocumentService::Reader r = svc->OpenReader();
    ASSERT_EQ(r.version(), acked);
    ASSERT_EQ(r.ToXml().value(), TreeToXml(ref, f.labels));
  }
  DocumentService::Stats st = svc->GetStats();
  EXPECT_EQ(st.acked_batches, acked);
}

TEST(DocumentServiceTest, SnapshotPinningAcrossMerges) {
  Fixture f = MakeFixture(Corpus::kXMark, 0.02, 48, 8, 23);
  auto svc = DocumentService::FromGrammar(f.seed.Clone(), ManualMerge()).take();
  auto writer = svc->OpenWriter();

  ASSERT_TRUE(writer.Apply(f.batches[0]).ok());
  DocumentService::Reader pinned = svc->OpenReader();
  const std::string pinned_xml = pinned.ToXml().value();
  const int64_t pinned_version = pinned.version();

  for (size_t i = 1; i < f.batches.size(); ++i) {
    ASSERT_TRUE(writer.Apply(f.batches[i]).ok());
    ASSERT_TRUE(svc->Flush().ok());  // one merge cycle per round
  }
  DocumentService::Stats st = svc->GetStats();
  EXPECT_GE(st.merges, static_cast<int64_t>(f.batches.size()) - 1);
  EXPECT_EQ(st.overlay_batches, 0);  // everything folded into base
  EXPECT_EQ(st.base_version, st.acked_batches);

  // The pinned view is untouched by any of it.
  EXPECT_EQ(pinned.version(), pinned_version);
  EXPECT_EQ(pinned.ToXml().value(), pinned_xml);
}

TEST(DocumentServiceTest, ByteIdenticalToSingleThreadedReplay) {
  Fixture f = MakeFixture(Corpus::kMedline, 0.03, 120, 6, 31);
  ServiceOptions opts;
  opts.update.growth_trigger = 0.2;  // adaptive merges race the writer
  opts.update.min_checkpoint_ops = 8;
  auto svc = DocumentService::FromGrammar(f.seed.Clone(), opts).take();

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([&svc, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        DocumentService::Reader r = svc->OpenReader();
        (void)r.LabelAt(1);
        (void)r.FindElement("MedlineCitation", 1);
        (void)r.version();
      }
    });
  }

  auto writer = svc->OpenWriter();
  for (const auto& batch : f.batches) {
    ASSERT_TRUE(writer.Apply(batch).ok());
  }
  ASSERT_TRUE(svc->Flush().ok());
  stop.store(true);
  for (auto& t : readers) t.join();

  DocumentService::Reader r = svc->OpenReader();
  EXPECT_EQ(r.ToXml().value(), f.FinalXml());
  DocumentService::Stats st = svc->GetStats();
  EXPECT_EQ(st.acked_batches, static_cast<int64_t>(f.batches.size()));
  EXPECT_EQ(st.overlay_batches, 0);
  EXPECT_GE(st.merges, 1);
}

TEST(DocumentServiceTest, ReadersRaceWritersAndMerges) {
  Fixture f = MakeFixture(Corpus::kNcbi, 0.02, 80, 2, 47);
  ServiceOptions opts;
  opts.update.growth_trigger = 0.15;
  opts.update.min_checkpoint_ops = 4;
  auto svc = DocumentService::FromGrammar(f.seed.Clone(), opts).take();

  std::atomic<bool> stop{false};
  std::atomic<int64_t> reads{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&svc, &stop, &reads, i] {
      while (!stop.load(std::memory_order_relaxed)) {
        DocumentService::Reader r = svc->OpenReader();
        EXPECT_TRUE(r.LabelAt(1).ok());
        if (i == 0) (void)r.ToXml();  // one heavyweight reader
        (void)r.CompressedSize();
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  auto writer = svc->OpenWriter();
  for (const auto& batch : f.batches) {
    ASSERT_TRUE(writer.Apply(batch).ok());
  }
  ASSERT_TRUE(svc->Flush().ok());
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(svc->OpenReader().ToXml().value(), f.FinalXml());
}

TEST(DocumentServiceTest, MergeStrategiesServeTheSameDocument) {
  Fixture f = MakeFixture(Corpus::kExiTelecomp, 0.02, 60, 6, 53);
  const std::string want = f.FinalXml();
  for (bool localized : {true, false}) {
    ServiceOptions opts = ManualMerge();
    opts.update.localized = localized;
    auto svc = DocumentService::FromGrammar(f.seed.Clone(), opts).take();
    auto writer = svc->OpenWriter();
    for (const auto& batch : f.batches) {
      ASSERT_TRUE(writer.Apply(batch).ok());
    }
    ASSERT_TRUE(svc->Flush().ok());
    EXPECT_EQ(svc->OpenReader().ToXml().value(), want)
        << "localized " << localized;
    EXPECT_GE(svc->GetStats().merges, 1);
  }
}

TEST(DocumentServiceTest, FailedBatchPublishesNothing) {
  auto svc = DocumentService::FromXml(kDoc, ManualMerge()).take();
  auto writer = svc->OpenWriter();
  ASSERT_TRUE(writer.Rename(1, "journal").ok());
  const std::string before = svc->OpenReader().ToXml().value();

  // Valid op followed by an out-of-range one: the whole batch fails.
  std::vector<UpdateOp> batch(2);
  batch[0].kind = UpdateOp::Kind::kDelete;
  batch[0].preorder = 2;
  batch[1].kind = UpdateOp::Kind::kDelete;
  batch[1].preorder = 1000000;
  EXPECT_FALSE(writer.Apply(batch).ok());

  // Single-op conveniences, every documented failure path.
  EXPECT_FALSE(writer.Rename(0, "x").ok());
  EXPECT_FALSE(writer.Rename(1000000, "x").ok());
  EXPECT_FALSE(writer.InsertXmlBefore(2, "<a><b></a>").ok());
  EXPECT_FALSE(writer.Delete(1000000).ok());

  DocumentService::Reader r = svc->OpenReader();
  EXPECT_EQ(r.version(), 1);  // only the successful rename
  EXPECT_EQ(r.ToXml().value(), before);
  EXPECT_EQ(svc->GetStats().acked_batches, 1);
}

TEST(DocumentServiceTest, AlienLabelIdsAreRejectedNotIndexed) {
  auto svc = DocumentService::FromXml("<a><b/><c/><b/></a>", ManualMerge())
                 .take();
  auto writer = svc->OpenWriter();
  DocumentService::Reader r0 = svc->OpenReader();
  const std::string before = r0.ToXml().value();
  // Past the end of the table: ids a caller minted in some other
  // lineage's table.
  const LabelId alien = r0.snapshot().grammar().labels().size() + 3;

  std::vector<UpdateOp> rename(1);
  rename[0].kind = UpdateOp::Kind::kRename;
  rename[0].preorder = 1;
  rename[0].label = alien;
  EXPECT_EQ(writer.Apply(rename).code(), StatusCode::kInvalidArgument);

  // alien(⊥, ⊥): the fragment shape EncodeBinary produces.
  std::vector<UpdateOp> insert(1);
  insert[0].kind = UpdateOp::Kind::kInsert;
  insert[0].preorder = 2;
  Tree& frag = insert[0].fragment;
  NodeId root = frag.NewNode(alien);
  frag.SetRoot(root);
  frag.AppendChild(root, frag.NewNode(kNullLabel));
  frag.AppendChild(root, frag.NewNode(kNullLabel));
  EXPECT_EQ(writer.Apply(insert).code(), StatusCode::kInvalidArgument);

  // An in-table label whose rank disagrees with the node's children
  // would encode differently from what it applies: rejected too.
  insert[0].fragment.set_label(root, kNullLabel);
  EXPECT_EQ(writer.Apply(insert).code(), StatusCode::kInvalidArgument);

  // Clean rejection: nothing published.
  DocumentService::Reader r = svc->OpenReader();
  EXPECT_EQ(r.version(), 0);
  EXPECT_EQ(r.ToXml().value(), before);
  EXPECT_EQ(svc->GetStats().acked_batches, 0);
  ASSERT_TRUE(writer.Rename(1, "root").ok());
  EXPECT_EQ(svc->OpenReader().version(), 1);
}

TEST(DocumentServiceTest, FlushWithNothingPendingIsANoop) {
  auto svc = DocumentService::FromXml(kDoc, ManualMerge()).take();
  ASSERT_TRUE(svc->Flush().ok());
  ASSERT_TRUE(svc->Flush().ok());
  EXPECT_EQ(svc->GetStats().merges, 0);
}

TEST(DocumentServiceTest, DurableServiceRecovers) {
  Fixture f = MakeFixture(Corpus::kTreebank, 0.02, 30, 5, 61);
  std::string dir = NewDir("recover");
  ServiceOptions opts = ManualMerge();
  opts.durable_dir = dir;

  std::string final_xml;
  {
    auto svc = DocumentService::FromGrammar(f.seed.Clone(), opts).take();
    auto writer = svc->OpenWriter();
    for (const auto& batch : f.batches) {
      ASSERT_TRUE(writer.Apply(batch).ok());
    }
    final_xml = svc->OpenReader().ToXml().value();
    EXPECT_EQ(final_xml, f.FinalXml());
    // Destroyed with the whole overlay unmerged: every batch is in the
    // journal, nothing depends on a final merge or checkpoint.
  }

  auto reopened_or = DocumentService::Open(opts);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  auto reopened = reopened_or.take();
  EXPECT_EQ(reopened->OpenReader().ToXml().value(), final_xml);
  reopened.reset();
  RemoveTree(dir);
}

TEST(DocumentServiceTest, DurableServiceRecoversUnseenTagsAcrossMerges) {
  std::string dir = NewDir("unseen");
  ServiceOptions opts;
  opts.durable_dir = dir;
  // Adaptive mode: merges (each one a checkpoint) mint Fresh labels
  // and renumber the table, so batches acknowledged before a merge and
  // replayed after it (the splice, the journal on reopen) must carry
  // new tags by name into a table that numbers them differently.
  opts.update.growth_trigger = 0.01;
  opts.update.min_checkpoint_ops = 1;

  std::string final_xml;
  {
    auto svc = DocumentService::FromXml(kDoc, opts).take();
    auto writer = svc->OpenWriter();
    auto pos = svc->OpenReader().FindElement("entry", 1);
    ASSERT_TRUE(pos.ok());
    ASSERT_TRUE(
        writer.InsertXmlBefore(pos.value(), "<audit><trail/></audit>").ok());
    ASSERT_TRUE(writer.Rename(1, "weblog").ok());
    ASSERT_TRUE(svc->Flush().ok());  // merge = checkpoint
    // Keep writing previously-unseen tags after the lineages diverged.
    ASSERT_TRUE(writer.Rename(1, "weblog2").ok());
    auto pos2 = svc->OpenReader().FindElement("trail", 1);
    ASSERT_TRUE(pos2.ok());
    ASSERT_TRUE(writer.InsertXmlBefore(pos2.value(), "<fresh/>").ok());
    ASSERT_TRUE(svc->Flush().ok());
    final_xml = svc->OpenReader().ToXml().value();
    EXPECT_NE(final_xml.find("<weblog2>"), std::string::npos);
    EXPECT_NE(final_xml.find("<fresh/>"), std::string::npos);
  }

  auto reopened_or = DocumentService::Open(opts);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  auto reopened = reopened_or.take();
  EXPECT_EQ(reopened->OpenReader().ToXml().value(), final_xml);
  reopened.reset();
  RemoveTree(dir);
}

TEST(DocumentServiceTest, DurableServiceRecompressesOncePerMerge) {
  Fixture f = MakeFixture(Corpus::kTreebank, 0.02, 48, 4, 71);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& rounds = reg.GetCounter("repair.rounds");
  obs::Counter& rescanned = reg.GetCounter("repair.rules_rescanned");
  // Repair work one run adds to the registry: same batches, same
  // Flush schedule, durable or not. The trigger is positive but out of
  // reach, so merges still ride Flush alone.
  auto repair_work = [&](const std::string& dir) {
    ServiceOptions opts;
    opts.update.growth_trigger = 1e18;
    opts.durable_dir = dir;
    const int64_t rounds0 = rounds.Value();
    const int64_t rescanned0 = rescanned.Value();
    {
      auto svc = DocumentService::FromGrammar(f.seed.Clone(), opts).take();
      auto writer = svc->OpenWriter();
      for (size_t i = 0; i < f.batches.size(); ++i) {
        EXPECT_TRUE(writer.Apply(f.batches[i]).ok());
        if (i % 4 == 3) {
          EXPECT_TRUE(svc->Flush().ok());
        }
      }
      EXPECT_EQ(svc->GetStats().merges, 3);
    }
    return std::make_pair(rounds.Value() - rounds0,
                          rescanned.Value() - rescanned0);
  };
  const auto in_memory = repair_work("");
  std::string dir = NewDir("once");
  const auto durable = repair_work(dir);
  RemoveTree(dir);
  EXPECT_GT(in_memory.first, 0);
  EXPECT_EQ(durable.first, in_memory.first);
  EXPECT_EQ(durable.second, in_memory.second);
}

// --------------------------------------------------------------------
// Service-level crash matrix: the durable composition (writer thread,
// merge thread, sink) under fault injection. Merges ride Flush only,
// so the writer blocks through each one and the sequence of I/O
// operations is the same on every run.

struct CrashScenario {
  Fixture f;
  int flush_every = 3;
  // Steps: each batch, plus a Flush after every flush_every-th one.
  int NumSteps() const {
    const int n = static_cast<int>(f.batches.size());
    return n + n / flush_every;
  }
};

ServiceOptions CrashOpts(const std::string& dir, FaultInjector* fi) {
  ServiceOptions opts = ManualMerge();
  opts.durable_dir = dir;
  opts.fault_injector = fi;
  return opts;
}

std::string EffectiveBytes(const DocumentService& svc) {
  return SerializeGrammar(svc.OpenReader().snapshot().grammar());
}

// The newest snapshot plus its journal's committed batches, replayed
// with the function recovery uses — what the disk says the document is.
std::string ReplayOwnJournal(const std::string& dir) {
  StatusOr<LoadedSnapshot> snap = LoadLatestSnapshot(dir);
  SLG_CHECK(snap.ok());
  Grammar g = std::move(snap.value().grammar);
  StatusOr<JournalReplay> journal =
      ReplayJournal(JoinPath(dir, JournalFileName(snap.value().generation)));
  SLG_CHECK(journal.ok());
  for (const std::string& encoded : journal.value().batches) {
    SLG_CHECK(ReplayBatch(&g, encoded).ok());
  }
  return SerializeGrammar(g);
}

TEST(DocumentServiceTest, ElementNamesNamingRulesAreRejected) {
  // A rename target or fragment tag spelled like a nonterminal of the
  // served grammar is refused — at rank 2 it would silently become a
  // call, at any other rank it used to abort the process — and the
  // rejection neither publishes nor journals anything.
  const std::string xml = WriteXml(GenerateCorpus(Corpus::kMedline, 0.05, 7));
  ServiceOptions opts = ManualMerge();
  opts.durable_dir = NewDir("rule_names");
  auto svc = DocumentService::FromXml(xml, opts).take();
  auto writer = svc->OpenWriter();
  const std::string before = EffectiveBytes(*svc);
  const Grammar& g = svc->OpenReader().snapshot().grammar();
  std::string rank2, other;
  g.ForEachRule([&](LabelId lhs, const Tree&) {
    if (lhs == g.start()) return;
    std::string& pick = g.labels().Rank(lhs) == 2 ? rank2 : other;
    if (pick.empty()) pick = g.labels().Name(lhs);
  });
  ASSERT_FALSE(rank2.empty());
  ASSERT_FALSE(other.empty());
  for (const std::string& name : {rank2, other}) {
    SCOPED_TRACE(name);
    EXPECT_EQ(writer.Rename(3, name).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(writer.InsertXmlBefore(3, "<" + name + "/>").code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(writer.InsertXmlBefore(3, "<fresh><" + name + "/></fresh>")
                  .code(),
              StatusCode::kInvalidArgument);
    std::vector<UpdateOp> rename(1);
    rename[0].kind = UpdateOp::Kind::kRename;
    rename[0].preorder = 3;
    rename[0].label = g.labels().Find(name);
    EXPECT_EQ(writer.Apply(rename).code(), StatusCode::kInvalidArgument);
  }
  DocumentService::Reader r = svc->OpenReader();
  EXPECT_EQ(r.version(), 0);
  EXPECT_EQ(EffectiveBytes(*svc), before);
  EXPECT_EQ(svc->GetStats().acked_batches, 0);
  EXPECT_EQ(ReplayOwnJournal(opts.durable_dir), before);
  ASSERT_TRUE(writer.Rename(3, "fresh").ok());
  EXPECT_EQ(svc->OpenReader().version(), 1);
  svc.reset();
  RemoveTree(opts.durable_dir);
}

struct CrashRun {
  bool create_ok = false;
  int acked = 0;  // steps (Apply / Flush) that returned Ok
};

CrashRun RunCrashScenario(const CrashScenario& sc, const ServiceOptions& opts,
                          std::vector<std::string>* chain = nullptr) {
  CrashRun out;
  auto created = DocumentService::FromGrammar(sc.f.seed.Clone(), opts);
  if (!created.ok()) return out;
  out.create_ok = true;
  auto svc = created.take();
  auto writer = svc->OpenWriter();
  if (chain != nullptr) chain->push_back(EffectiveBytes(*svc));
  for (size_t i = 0; i < sc.f.batches.size(); ++i) {
    if (!writer.Apply(sc.f.batches[i]).ok()) return out;
    ++out.acked;
    if (chain != nullptr) {
      chain->push_back(EffectiveBytes(*svc));
      // Live apply (the caller's ops) and replay (the decoded journal
      // payload) must agree byte for byte, or recovery would not
      // reproduce acknowledged states.
      EXPECT_EQ(chain->back(), ReplayOwnJournal(opts.durable_dir))
          << "live grammar diverges from its journal after batch " << i;
    }
    if ((i + 1) % static_cast<size_t>(sc.flush_every) == 0) {
      if (!svc->Flush().ok()) return out;
      ++out.acked;
      if (chain != nullptr) chain->push_back(EffectiveBytes(*svc));
    }
  }
  return out;
}

TEST(DurableServiceCrashMatrix, EveryCrashPointRecoversCommittedPrefix) {
  CrashScenario sc;
  sc.f = MakeFixture(Corpus::kExiWeblog, 0.02, 24, 3, 11);
  const int S = sc.NumSteps();

  // Reference run: chain[s] is the effective grammar after step s
  // (chain[0] after Create).
  std::vector<std::string> chain;
  {
    std::string dir = NewDir("mref");
    CrashRun r = RunCrashScenario(sc, CrashOpts(dir, nullptr), &chain);
    ASSERT_TRUE(r.create_ok);
    ASSERT_EQ(r.acked, S);
    RemoveTree(dir);
  }
  ASSERT_EQ(static_cast<int>(chain.size()), S + 1);

  FaultInjector counter;
  {
    std::string dir = NewDir("mcount");
    CrashRun r = RunCrashScenario(sc, CrashOpts(dir, &counter));
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
      std::string dir = NewDir("mcrash");
      CrashRun r = RunCrashScenario(sc, CrashOpts(dir, &fi));
      ASSERT_TRUE(fi.crashed()) << mode.name << " k=" << k;
      const std::string context =
          std::string(mode.name) + " at op " + std::to_string(k);

      auto opened = DocumentService::Open(CrashOpts(dir, nullptr));
      if (!r.create_ok) {
        if (opened.ok()) {
          EXPECT_EQ(EffectiveBytes(*opened.value()), chain[0]) << context;
        } else {
          EXPECT_EQ(opened.status().code(), StatusCode::kNotFound) << context;
        }
        RemoveTree(dir);
        continue;
      }
      ASSERT_TRUE(opened.ok())
          << context << ": " << opened.status().ToString();
      auto svc = opened.take();
      const std::string got = EffectiveBytes(*svc);
      const bool in_window = got == chain[static_cast<size_t>(r.acked)] ||
                             (r.acked < S &&
                              got == chain[static_cast<size_t>(r.acked + 1)]);
      EXPECT_TRUE(in_window)
          << context << ": recovered grammar is neither the state after step "
          << r.acked << " nor the one after";
      // Subsample: the recovered service must keep working durably.
      if (k % 7 == 0) {
        EXPECT_TRUE(svc->OpenWriter().Apply(sc.f.batches[0]).ok()) << context;
        EXPECT_TRUE(svc->Flush().ok()) << context;
      }
      svc.reset();
      RemoveTree(dir);
    }
  }
}

TEST(DocumentServiceTest, OpenRequiresDurableDir) {
  EXPECT_FALSE(DocumentService::Open(ServiceOptions{}).ok());
  EXPECT_FALSE(DocumentService::FromSnapshot(nullptr).ok());
}

}  // namespace
}  // namespace slg
