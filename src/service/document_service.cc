#include "src/service/document_service.h"

#include <algorithm>
#include <cstddef>
#include <unordered_set>
#include <utility>

#include "src/common/check.h"
#include "src/common/timer.h"
#include "src/grammar/validate.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/update/batch.h"
#include "src/xml/xml_parser.h"

namespace slg {

namespace {

struct ServiceMetrics {
  obs::Counter& batches;
  obs::Counter& ops;
  obs::Counter& merges;
  obs::Counter& rescans;
  obs::Gauge& overlay_edges;
  obs::Gauge& overlay_batches;
  obs::Histogram& write_us;
  obs::Histogram& merge_us;

  static ServiceMetrics& Get() {
    static ServiceMetrics* m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      return new ServiceMetrics{reg.GetCounter("service.batches"),
                                reg.GetCounter("service.ops"),
                                reg.GetCounter("service.merges"),
                                reg.GetCounter("service.merge_rules_rescanned"),
                                reg.GetGauge("service.overlay_edges"),
                                reg.GetGauge("service.overlay_batches"),
                                reg.GetHistogram("service.write_us"),
                                reg.GetHistogram("service.merge_us")};
    }();
    return *m;
  }
};

std::vector<UpdateOp> OneOp(UpdateOp::Kind kind, int64_t preorder) {
  std::vector<UpdateOp> ops(1);
  ops[0].kind = kind;
  ops[0].preorder = preorder;
  return ops;
}

}  // namespace

// --- the lineage's transitions ---------------------------------------------

StatusOr<BatchEffect> ReplayBatch(Grammar* g, std::string_view encoded) {
  std::vector<UpdateOp> ops;
  SLG_RETURN_IF_ERROR(DecodeBatch(encoded, &g->labels(), &ops));
  return ApplyOps(g, ops);
}

StatusOr<Grammar> FoldJournal(Grammar base,
                              const std::vector<std::string>& batches,
                              const UpdateOptions& options) {
  std::vector<LabelId> damage;
  std::unordered_set<LabelId> seen;
  for (const std::string& encoded : batches) {
    StatusOr<BatchEffect> e = ReplayBatch(&base, encoded);
    if (!e.ok()) return e.status();
    for (LabelId r : e.value().damage) {
      if (seen.insert(r).second) damage.push_back(r);
    }
  }
  return RecompressDamaged(std::move(base), damage, options).grammar;
}

// --- factories -------------------------------------------------------------

StatusOr<std::unique_ptr<DocumentService>> DocumentService::FromXml(
    std::string_view xml, const ServiceOptions& options) {
  StatusOr<std::shared_ptr<const GrammarSnapshot>> snap =
      CompressXmlToSnapshot(xml, options.compress);
  if (!snap.ok()) return snap.status();
  return FromSnapshot(snap.take(), options);
}

StatusOr<std::unique_ptr<DocumentService>> DocumentService::FromGrammar(
    Grammar g, const ServiceOptions& options) {
  SLG_RETURN_IF_ERROR(Validate(g));
  return FromSnapshot(GrammarSnapshot::Make(std::move(g)), options);
}

StatusOr<std::unique_ptr<DocumentService>> DocumentService::FromSnapshot(
    std::shared_ptr<const GrammarSnapshot> snapshot,
    const ServiceOptions& options) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("null snapshot");
  }
  std::optional<DurableDocument> durable;
  if (!options.durable_dir.empty()) {
    StatusOr<DurableDocument> d = DurableDocument::Create(
        options.durable_dir, snapshot->grammar(),
        {options.journal, options.fault_injector});
    if (!d.ok()) return d.status();
    durable.emplace(d.take());
  }
  return std::unique_ptr<DocumentService>(new DocumentService(
      options, std::move(snapshot), std::move(durable)));
}

StatusOr<std::unique_ptr<DocumentService>> DocumentService::Open(
    const ServiceOptions& options) {
  if (options.durable_dir.empty()) {
    return Status::InvalidArgument("Open requires options.durable_dir");
  }
  // The whole recovery — snapshot load, rotation re-runs, journal
  // replay into the overlay — is the durable store's recover layer.
  obs::TraceSpan span("store.recover");
  DurableDocument::Recovered rec;
  StatusOr<DurableDocument> d = DurableDocument::Open(
      options.durable_dir, {options.journal, options.fault_injector},
      [&options](Grammar base, const std::vector<std::string>& batches) {
        return FoldJournal(std::move(base), batches, options.update);
      },
      &rec);
  if (!d.ok()) return d.status();
  std::unique_ptr<DocumentService> svc(new DocumentService(
      options, GrammarSnapshot::Make(std::move(rec.base)), d.take()));
  std::lock_guard<std::mutex> lk(svc->mu_);
  for (std::string& encoded : rec.batches) {
    svc->pending_.push_back(PendingBatch{std::move(encoded), {}});
  }
  svc->acked_batches_ = static_cast<int64_t>(svc->pending_.size());
  Status replayed = svc->RebaseLocked(svc->state_->base);
  if (!replayed.ok()) {
    // A committed, CRC-valid batch that does not apply: the corruption
    // beat the checksum, and there is no later state to fall back to.
    return Status::DataLoss("journal holds an unreplayable committed batch: " +
                            replayed.message());
  }
  return svc;
}

DocumentService::DocumentService(ServiceOptions options,
                                 std::shared_ptr<const GrammarSnapshot> initial,
                                 std::optional<DurableDocument> durable)
    : options_(std::move(options)), durable_(std::move(durable)) {
  auto ns = std::make_shared<ServiceState>();
  ns->base = std::move(initial);
  state_ = std::move(ns);
  merge_thread_ = std::thread(&DocumentService::MergeLoop, this);
}

DocumentService::~DocumentService() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (merge_thread_.joinable()) merge_thread_.join();
  if (durable_) {
    (void)durable_->Close();
  }
}

// --- reads -----------------------------------------------------------------

DocumentService::Reader DocumentService::OpenReader() const {
  // One atomic shared_ptr load; never touches mu_. The returned view
  // pins the state (and thus both snapshots) for its own lifetime.
  return Reader(std::atomic_load(&state_));
}

// --- writes ----------------------------------------------------------------

Status DocumentService::Writer::Apply(const std::vector<UpdateOp>& ops) {
  if (ops.empty()) return Status::Ok();
  return service_->Write(
      [&ops](Grammar*) -> StatusOr<std::vector<UpdateOp>> { return ops; });
}

Status DocumentService::Writer::Rename(int64_t preorder,
                                       std::string_view new_tag) {
  return service_->Write(
      [&](Grammar* g) -> StatusOr<std::vector<UpdateOp>> {
        std::vector<UpdateOp> ops = OneOp(UpdateOp::Kind::kRename, preorder);
        // BatchUpdater rejects ⊥, parameters, nonterminals and ranks
        // other than 2.
        LabelId id = g->labels().Find(new_tag);
        ops[0].label = id != kNoLabel ? id : g->labels().Intern(new_tag, 2);
        return ops;
      });
}

Status DocumentService::Writer::InsertXmlBefore(int64_t preorder,
                                                std::string_view xml_fragment) {
  StatusOr<XmlTree> parsed = ParseXml(xml_fragment);
  if (!parsed.ok()) return parsed.status();
  return service_->Write(
      [&](Grammar* g) -> StatusOr<std::vector<UpdateOp>> {
        StatusOr<Tree> frag = EncodeFragment(parsed.value(), g);
        if (!frag.ok()) return frag.status();
        std::vector<UpdateOp> ops = OneOp(UpdateOp::Kind::kInsert, preorder);
        ops[0].fragment = frag.take();
        return ops;
      });
}

Status DocumentService::Writer::Delete(int64_t preorder) {
  return service_->Write(
      [preorder](Grammar*) -> StatusOr<std::vector<UpdateOp>> {
        return OneOp(UpdateOp::Kind::kDelete, preorder);
      });
}

Status DocumentService::Write(const BatchBuilder& build) {
  obs::TraceSpan span("service.write");
  Timer timer;
  std::lock_guard<std::mutex> lk(mu_);
  Grammar next = state_->effective().grammar().Clone();
  StatusOr<std::vector<UpdateOp>> ops = build(&next);
  if (!ops.ok()) return ops.status();
  // Failure before publication: the clone is dropped, the service
  // state and the journal are untouched — batch atomicity.
  StatusOr<BatchEffect> applied = ApplyOps(&next, ops.value());
  if (!applied.ok()) return applied.status();
  BatchEffect effect = applied.take();
  // Journal first, acknowledge second: a batch whose Apply returned Ok
  // is durable per the fsync policy before any reader can see it. A
  // journal failure publishes nothing (the store poisons itself; the
  // served state stays at the last acknowledged version). The payload
  // carries label names, so it replays onto any later base — the
  // splice and recovery decode it against the base's own table.
  std::string encoded = EncodeBatch(ops.value(), next.labels());
  if (durable_) SLG_RETURN_IF_ERROR(durable_->AppendBatch(encoded));
  auto ns = std::make_shared<ServiceState>();
  ns->base = state_->base;
  ns->overlay = GrammarSnapshot::Make(std::move(next), acked_batches_ + 1);
  ns->overlay_batches = state_->overlay_batches + 1;
  ns->overlay_edges = state_->overlay_edges + effect.edges_added;
  ++acked_batches_;
  acked_ops_ += effect.ops;
  overlay_ops_ += effect.ops;
  ServiceMetrics& m = ServiceMetrics::Get();
  m.batches.Increment();
  m.ops.Add(effect.ops);
  m.overlay_edges.Set(ns->overlay_edges);
  m.overlay_batches.Set(ns->overlay_batches);
  pending_.push_back(PendingBatch{std::move(encoded), std::move(effect)});
  std::atomic_store(&state_, std::shared_ptr<const ServiceState>(std::move(ns)));
  if (MergeNeededLocked()) cv_.notify_all();
  m.write_us.Record(static_cast<int64_t>(timer.ElapsedSeconds() * 1e6));
  return Status::Ok();
}

// --- merge -----------------------------------------------------------------

bool DocumentService::MergeNeededLocked() const {
  if (pending_.empty()) return false;
  if (options_.update.growth_trigger <= 0) return false;
  if (overlay_ops_ < options_.update.min_checkpoint_ops) return false;
  return static_cast<double>(state_->overlay_edges) >
         options_.update.growth_trigger *
             static_cast<double>(state_->base->edges());
}

void DocumentService::MergeLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_.wait(lk, [&] {
      return stop_ || MergeNeededLocked() || flush_target_ > merged_version_;
    });
    if (stop_) return;
    if (pending_.empty()) {
      // Nothing unmerged — a Flush raced a merge that already folded
      // everything in; record it and wake the waiters.
      merged_version_ = acked_batches_;
      cv_.notify_all();
      continue;
    }
    MergeOnce(lk);
    cv_.notify_all();
  }
}

void DocumentService::MergeOnce(std::unique_lock<std::mutex>& lk) {
  // Capture the merge input: the materialized overlay (base + all k
  // pending batches) and the union of their damage sets — the damage
  // is exactly the overlay, which is what keeps the localized merge
  // O(overlay), not O(document).
  std::shared_ptr<const ServiceState> in_state = state_;
  size_t k = pending_.size();
  std::vector<LabelId> damage;
  {
    std::unordered_set<LabelId> seen;
    for (size_t i = 0; i < k; ++i) {
      for (LabelId r : pending_[i].effect.damage) {
        if (seen.insert(r).second) damage.push_back(r);
      }
    }
  }
  int64_t v = in_state->effective().version();
  // Seal at capture: journal g now holds exactly the k captured
  // batches, and batches acknowledged while the repair runs land in
  // journal g+1. A store failure here or at the publish below poisons
  // the store; it surfaces on the next write or Flush.
  if (durable_) (void)durable_->Seal();

  // Recompress off-lock: writers keep acknowledging batches (their
  // snapshots chain off the captured overlay) and readers keep
  // loading whatever state is current.
  lk.unlock();
  Timer timer;
  GrammarRepairResult merged = [&] {
    obs::TraceSpan span("service.merge");
    return RecompressDamaged(in_state->effective().grammar().Clone(), damage,
                             options_.update);
  }();
  int64_t elapsed_us = static_cast<int64_t>(timer.ElapsedSeconds() * 1e6);
  // Snapshot construction builds every read index — the shared
  // RuleSummary (compiled bodies, segment sizes, label filters, piece
  // tables) — so it runs here, off the lock; only the splice below
  // needs mu_.
  std::shared_ptr<const GrammarSnapshot> base_snap =
      GrammarSnapshot::Make(std::move(merged.grammar), v);

  lk.lock();
  // The merged base is snapshot g+1: the fold of snapshot g and the
  // journal sealed above, which recovery would rebuild byte-for-byte.
  if (durable_) (void)durable_->PublishSnapshot(base_snap->grammar());
  ++merges_;
  merge_rescans_ += merged.rules_rescanned;
  ServiceMetrics& m = ServiceMetrics::Get();
  m.merges.Increment();
  m.rescans.Add(merged.rules_rescanned);
  m.merge_us.Record(elapsed_us);

  // Splice: the k captured batches are folded into the new base;
  // batches acknowledged while the repair ran become the new overlay,
  // replayed from their self-contained journal encoding — the encoded
  // form interns label names into the merged lineage (the repair may
  // have renumbered or dropped nonterminals), and the replay harvests
  // fresh damage sets valid in that lineage for the next merge.
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(k));
  Status replayed = RebaseLocked(std::move(base_snap));
  SLG_CHECK_MSG(replayed.ok(), "acknowledged batch must replay");
  merged_version_ = v;
}

Status DocumentService::RebaseLocked(
    std::shared_ptr<const GrammarSnapshot> base) {
  auto ns = std::make_shared<ServiceState>();
  ns->base = std::move(base);
  overlay_ops_ = 0;
  if (!pending_.empty()) {
    Grammar mat = ns->base->grammar().Clone();
    for (PendingBatch& pb : pending_) {
      StatusOr<BatchEffect> e = ReplayBatch(&mat, pb.encoded);
      if (!e.ok()) return e.status();
      pb.effect = e.take();
      ns->overlay_edges += pb.effect.edges_added;
      overlay_ops_ += pb.effect.ops;
    }
    ns->overlay_batches = static_cast<int64_t>(pending_.size());
    ns->overlay = GrammarSnapshot::Make(
        std::move(mat), ns->base->version() + ns->overlay_batches);
  }
  ServiceMetrics& m = ServiceMetrics::Get();
  m.overlay_edges.Set(ns->overlay_edges);
  m.overlay_batches.Set(ns->overlay_batches);
  std::atomic_store(&state_, std::shared_ptr<const ServiceState>(std::move(ns)));
  return Status::Ok();
}

Status DocumentService::Flush() {
  std::unique_lock<std::mutex> lk(mu_);
  int64_t target = acked_batches_;
  if (merged_version_ < target) {
    flush_target_ = std::max(flush_target_, target);
    cv_.notify_all();
    cv_.wait(lk, [&] { return stop_ || merged_version_ >= target; });
    if (merged_version_ < target) {
      return Status::FailedPrecondition(
          "service stopped before flush finished");
    }
  }
  if (durable_ && durable_->poisoned()) {
    return Status::FailedPrecondition(
        "durable store is poisoned; reopen to recover the last checkpoint");
  }
  return Status::Ok();
}

DocumentService::Stats DocumentService::GetStats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats s;
  s.acked_batches = acked_batches_;
  s.acked_ops = acked_ops_;
  s.merges = merges_;
  s.merge_rules_rescanned = merge_rescans_;
  s.overlay_batches = state_->overlay_batches;
  s.overlay_edges = state_->overlay_edges;
  s.base_version = state_->base->version();
  return s;
}

}  // namespace slg
