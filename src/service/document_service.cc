#include "src/service/document_service.h"

#include <cstddef>
#include <unordered_set>
#include <utility>

#include "src/common/check.h"
#include "src/common/timer.h"
#include "src/grammar/validate.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/update/batch.h"
#include "src/xml/binary_encoding.h"
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

DurableDocumentOptions MakeDurableOptions(const ServiceOptions& o) {
  DurableDocumentOptions d;
  d.journal = o.journal;
  d.update = o.update;
  // The embedded store never checkpoints itself: its adaptive trigger
  // would recompress + snapshot synchronously inside the write path
  // while mu_ is held (stalling every writer and the merge splice) and
  // duplicate the recompression the merge thread already does. The
  // merge thread drives Checkpoint() explicitly instead, off mu_.
  d.update.growth_trigger = 0;
  d.fault_injector = o.fault_injector;
  return d;
}

}  // namespace

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
    StatusOr<DurableDocument> d =
        DurableDocument::Create(options.durable_dir,
                                snapshot->grammar().Clone(),
                                MakeDurableOptions(options));
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
  StatusOr<DurableDocument> d =
      DurableDocument::Open(options.durable_dir, MakeDurableOptions(options));
  if (!d.ok()) return d.status();
  Grammar g = d.value().grammar().Clone();
  std::optional<DurableDocument> durable;
  durable.emplace(d.take());
  return std::unique_ptr<DocumentService>(
      new DocumentService(options, GrammarSnapshot::Make(std::move(g)),
                          std::move(durable)));
}

DocumentService::DocumentService(ServiceOptions options,
                                 std::shared_ptr<const GrammarSnapshot> initial,
                                 std::optional<DurableDocument> durable)
    : options_(std::move(options)), durable_(std::move(durable)) {
  auto ns = std::make_shared<ServiceState>();
  ns->base = std::move(initial);
  state_ = std::move(ns);
  if (options_.merge_strategy == MergeStrategy::kUdc) {
    UdcOptions uo;
    uo.mode = UdcOptions::Mode::kDagShared;
    udc_.emplace(uo);
  }
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
  obs::TraceSpan span("service.write");
  Timer timer;
  DocumentService* s = service_;
  std::unique_lock<std::mutex> lk(s->mu_);
  Grammar next = s->state_->effective().grammar().Clone();
  std::vector<LabelId> damage;
  int64_t edges = 0;
  {
    BatchUpdater bu(&next);
    for (const UpdateOp& op : ops) {
      // Failure before publication: the clone is dropped, the service
      // state and the durable store are untouched — batch atomicity.
      SLG_RETURN_IF_ERROR(bu.Apply(op));
    }
    damage = bu.DamagedRules();
    edges = bu.EdgesAdded();
    bu.Finish();
  }
  SLG_RETURN_IF_ERROR(
      s->CommitLocked(std::move(next), ops, std::move(damage), edges));
  ServiceMetrics::Get().write_us.Record(
      static_cast<int64_t>(timer.ElapsedSeconds() * 1e6));
  return Status::Ok();
}

Status DocumentService::Writer::Rename(int64_t preorder,
                                       std::string_view new_tag) {
  obs::TraceSpan span("service.write");
  Timer timer;
  DocumentService* s = service_;
  std::unique_lock<std::mutex> lk(s->mu_);
  Grammar next = s->state_->effective().grammar().Clone();
  std::vector<UpdateOp> ops(1);
  ops[0].kind = UpdateOp::Kind::kRename;
  ops[0].preorder = preorder;
  std::vector<LabelId> damage;
  int64_t edges = 0;
  {
    BatchUpdater bu(&next);
    SLG_RETURN_IF_ERROR(bu.Rename(preorder, new_tag));
    damage = bu.DamagedRules();
    edges = bu.EdgesAdded();
    bu.Finish();
  }
  // Rename interned the target label; the op (and its journal
  // encoding) must reference it in the clone's table.
  ops[0].label = next.labels().Find(new_tag);
  SLG_RETURN_IF_ERROR(
      s->CommitLocked(std::move(next), ops, std::move(damage), edges));
  ServiceMetrics::Get().write_us.Record(
      static_cast<int64_t>(timer.ElapsedSeconds() * 1e6));
  return Status::Ok();
}

Status DocumentService::Writer::InsertXmlBefore(int64_t preorder,
                                                std::string_view xml_fragment) {
  obs::TraceSpan span("service.write");
  Timer timer;
  StatusOr<XmlTree> parsed = ParseXml(xml_fragment);
  if (!parsed.ok()) return parsed.status();
  DocumentService* s = service_;
  std::unique_lock<std::mutex> lk(s->mu_);
  Grammar next = s->state_->effective().grammar().Clone();
  Tree frag = EncodeBinary(parsed.value(), &next.labels());
  std::vector<UpdateOp> ops(1);
  ops[0].kind = UpdateOp::Kind::kInsert;
  ops[0].preorder = preorder;
  ops[0].fragment = frag;
  std::vector<LabelId> damage;
  int64_t edges = 0;
  {
    BatchUpdater bu(&next);
    SLG_RETURN_IF_ERROR(bu.InsertBefore(preorder, frag));
    damage = bu.DamagedRules();
    edges = bu.EdgesAdded();
    bu.Finish();
  }
  SLG_RETURN_IF_ERROR(
      s->CommitLocked(std::move(next), ops, std::move(damage), edges));
  ServiceMetrics::Get().write_us.Record(
      static_cast<int64_t>(timer.ElapsedSeconds() * 1e6));
  return Status::Ok();
}

Status DocumentService::Writer::Delete(int64_t preorder) {
  obs::TraceSpan span("service.write");
  Timer timer;
  DocumentService* s = service_;
  std::unique_lock<std::mutex> lk(s->mu_);
  Grammar next = s->state_->effective().grammar().Clone();
  std::vector<UpdateOp> ops(1);
  ops[0].kind = UpdateOp::Kind::kDelete;
  ops[0].preorder = preorder;
  std::vector<LabelId> damage;
  int64_t edges = 0;
  {
    BatchUpdater bu(&next);
    SLG_RETURN_IF_ERROR(bu.Delete(preorder));
    damage = bu.DamagedRules();
    edges = bu.EdgesAdded();
    bu.Finish();
  }
  SLG_RETURN_IF_ERROR(
      s->CommitLocked(std::move(next), ops, std::move(damage), edges));
  ServiceMetrics::Get().write_us.Record(
      static_cast<int64_t>(timer.ElapsedSeconds() * 1e6));
  return Status::Ok();
}

Status DocumentService::CommitLocked(Grammar next,
                                     const std::vector<UpdateOp>& ops,
                                     std::vector<LabelId> damage,
                                     int64_t edges) {
  // Journal first, acknowledge second: a batch whose Apply returned Ok
  // is durable per the fsync policy before any reader can see it. A
  // journal failure publishes nothing (the store poisons itself; the
  // served state stays at the last acknowledged version).
  // The payload is encoded against the SERVICE lineage's table and
  // handed to the durable store in that self-contained, name-based
  // form: the store decodes it against its own table, whose LabelIds
  // diverge from ours as soon as a merge or a checkpoint mints Fresh()
  // labels — raw service ids would resolve to the wrong names there.
  std::string encoded = EncodeBatch(ops, next.labels());
  if (durable_) {
    std::lock_guard<std::mutex> dlk(durable_mu_);
    SLG_RETURN_IF_ERROR(durable_->ApplyEncodedBatch(encoded));
  }
  auto snap = GrammarSnapshot::Make(std::move(next), acked_batches_ + 1);
  auto ns = std::make_shared<ServiceState>();
  ns->base = state_->base;
  ns->overlay = std::move(snap);
  ns->overlay_batches = state_->overlay_batches + 1;
  ns->overlay_edges = state_->overlay_edges + edges;
  pending_.push_back(PendingBatch{std::move(encoded), std::move(damage), edges,
                                  static_cast<int64_t>(ops.size())});
  ++acked_batches_;
  acked_ops_ += static_cast<int64_t>(ops.size());
  overlay_ops_ += static_cast<int64_t>(ops.size());
  ServiceMetrics& m = ServiceMetrics::Get();
  m.batches.Increment();
  m.ops.Add(static_cast<int64_t>(ops.size()));
  m.overlay_edges.Set(ns->overlay_edges);
  m.overlay_batches.Set(ns->overlay_batches);
  std::atomic_store(&state_, std::shared_ptr<const ServiceState>(std::move(ns)));
  if (MergeNeededLocked()) cv_.notify_all();
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
      for (LabelId r : pending_[i].damage) {
        if (seen.insert(r).second) damage.push_back(r);
      }
    }
  }
  int64_t v = in_state->effective().version();

  // Recompress off-lock: writers keep acknowledging batches (their
  // snapshots chain off the captured overlay) and readers keep
  // loading whatever state is current.
  lk.unlock();
  Timer timer;
  Grammar merged;
  int64_t rescanned = 0;
  {
    obs::TraceSpan span("service.merge");
    Grammar work = in_state->effective().grammar().Clone();
    switch (options_.merge_strategy) {
      case MergeStrategy::kFull: {
        GrammarRepairResult r =
            GrammarRePair(std::move(work), options_.update.repair);
        merged = std::move(r.grammar);
        rescanned = r.rules_rescanned;
        break;
      }
      case MergeStrategy::kUdc:
        if (StatusOr<UdcResult> r = udc_->Run(work); r.ok()) {
          UdcResult res = r.take();
          merged = std::move(res.grammar);
          break;
        }
        // Decompression budget exceeded — degrade to the localized
        // merge rather than stalling the service.
        [[fallthrough]];
      case MergeStrategy::kLocalized: {
        GrammarRepairResult r = LocalizedGrammarRePair(std::move(work), damage,
                                                       options_.update.repair);
        merged = std::move(r.grammar);
        rescanned = r.rules_rescanned;
        break;
      }
    }
  }
  int64_t elapsed_us = static_cast<int64_t>(timer.ElapsedSeconds() * 1e6);

  // The durable store's checkpoint rides the merge cadence, still off
  // mu_ (MakeDurableOptions disabled its own in-write-path trigger):
  // writers racing this block only on durable_mu_ for the rotation's
  // duration, readers not at all. A checkpoint failure poisons the
  // store and surfaces as FailedPrecondition on the next write — the
  // same failure model as any other durability-path error.
  if (durable_ && options_.update.growth_trigger > 0) {
    std::lock_guard<std::mutex> dlk(durable_mu_);
    (void)durable_->Checkpoint();
  }

  // Snapshot construction builds every read index — the with-sizes
  // RuleMeta and the shared RuleSummary (label filters, piece
  // tables) — so it runs here, off the lock; only the
  // splice below needs mu_.
  std::shared_ptr<const GrammarSnapshot> base_snap =
      GrammarSnapshot::Make(std::move(merged), v);

  lk.lock();
  ++merges_;
  merge_rescans_ += rescanned;
  ServiceMetrics& m = ServiceMetrics::Get();
  m.merges.Increment();
  m.rescans.Add(rescanned);
  m.merge_us.Record(elapsed_us);

  // Splice: the k captured batches are folded into the new base;
  // batches acknowledged while the repair ran become the new overlay,
  // replayed from their self-contained journal encoding — the encoded
  // form interns label names into the merged lineage (the repair may
  // have renumbered or dropped nonterminals), and the replay harvests
  // fresh damage sets valid in that lineage for the next merge.
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(k));
  auto ns = std::make_shared<ServiceState>();
  if (pending_.empty()) {
    ns->base = std::move(base_snap);
    overlay_ops_ = 0;
  } else {
    Grammar mat = base_snap->grammar().Clone();
    int64_t edges_total = 0;
    int64_t ops_total = 0;
    for (PendingBatch& pb : pending_) {
      std::vector<UpdateOp> ops;
      Status st = DecodeBatch(pb.encoded, &mat.labels(), &ops);
      SLG_CHECK_MSG(st.ok(), "acknowledged batch must decode");
      BatchUpdater bu(&mat);
      for (const UpdateOp& op : ops) {
        Status ast = bu.Apply(op);
        SLG_CHECK_MSG(ast.ok(), "acknowledged batch must replay");
      }
      pb.damage = bu.DamagedRules();
      pb.edges_added = bu.EdgesAdded();
      bu.Finish();
      edges_total += pb.edges_added;
      ops_total += pb.ops;
    }
    ns->base = std::move(base_snap);
    ns->overlay = GrammarSnapshot::Make(
        std::move(mat), v + static_cast<int64_t>(pending_.size()));
    ns->overlay_batches = static_cast<int64_t>(pending_.size());
    ns->overlay_edges = edges_total;
    overlay_ops_ = ops_total;
  }
  m.overlay_edges.Set(ns->overlay_edges);
  m.overlay_batches.Set(ns->overlay_batches);
  std::atomic_store(&state_, std::shared_ptr<const ServiceState>(std::move(ns)));
  merged_version_ = v;
}

Status DocumentService::Flush() {
  std::unique_lock<std::mutex> lk(mu_);
  int64_t target = acked_batches_;
  if (merged_version_ >= target) return Status::Ok();
  flush_target_ = std::max(flush_target_, target);
  cv_.notify_all();
  cv_.wait(lk, [&] { return stop_ || merged_version_ >= target; });
  if (merged_version_ < target) {
    return Status::FailedPrecondition("service stopped before flush finished");
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
