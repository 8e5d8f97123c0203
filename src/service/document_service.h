// DocumentService — the concurrent read/write entry point, and the
// unification of the library's public surfaces.
//
// One service holds one compressed XML document — one grammar
// lineage — and serves:
//
//   * any number of readers — OpenReader() atomically loads the
//     current ServiceState (immutable base snapshot + immutable
//     overlay snapshot); every read runs against that pinned pair and
//     never takes the writer lock, so readers proceed at full speed
//     during writes and merges alike;
//   * writers — OpenWriter() hands out a handle whose batch
//     application runs under one writer mutex: clone the effective
//     grammar, apply the batch (BatchUpdater), journal its EncodeBatch
//     payload (durable mode — journal-then-ack), then publish the
//     result as the new overlay with one atomic shared_ptr swap. A
//     failed batch publishes nothing: batches are atomic, the document
//     is unchanged;
//   * a background merge thread — when the overlay's gross added
//     edges exceed UpdateOptions::growth_trigger of the base (with
//     the min_checkpoint_ops floor), or on Flush(), it recompresses
//     the overlay off-lock (RecompressDamaged: localized repair seeded
//     with exactly the overlay's damage, or the full repair when
//     UpdateOptions::localized is off) and splices the result in:
//     batches acknowledged during the merge are replayed from their
//     journal-codec encoding onto the new base. In-flight readers are
//     never blocked and keep their pinned versions alive via
//     shared_ptr reference counting — the RCU reclamation argument in
//     docs/SERVICE.md.
//
// Durable mode (ServiceOptions::durable_dir) adds a DurableDocument as
// a sink for this one lineage, every call under the writer mutex. The
// service keeps one invariant: the active snapshot is
// SerializeGrammar(base), and the active journal's committed batches
// are exactly the unmerged (pending) batches. Every merge is a
// checkpoint: the capture seals the journal, the splice publishes the
// merged base as the next snapshot. Open() serves the newest snapshot
// as the base and replays its journal into the overlay with the same
// function the splice uses (docs/DURABILITY.md).
//
// CompressedXmlTree (single-threaded facade over the same
// GrammarSnapshot type, see FromSnapshot / CompressedXmlTree::
// Snapshot()) and the durable store sit behind this one StatusOr-based
// Open/Reader/Writer interface.

#ifndef SLG_SERVICE_DOCUMENT_SERVICE_H_
#define SLG_SERVICE_DOCUMENT_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/api/options.h"
#include "src/common/status.h"
#include "src/service/overlay_view.h"
#include "src/service/snapshot.h"
#include "src/store/durable_document.h"
#include "src/store/fault_injection.h"
#include "src/store/journal.h"
#include "src/update/batch.h"
#include "src/workload/update_workload.h"

namespace slg {

// --- the lineage's two transitions -------------------------------------
// Shared by the merge splice and recovery; public so the store's crash
// tests drive the sink with exactly these.

// Decodes an EncodeBatch payload against g's label table (interning
// names it lacks) and applies it as one batch.
StatusOr<BatchEffect> ReplayBatch(Grammar* g, std::string_view encoded);

// What a sealed journal folds into: `batches` replayed onto `base`,
// then one RecompressDamaged over their damage — the merge step the
// merge thread runs. The store's JournalFold in durable mode.
StatusOr<Grammar> FoldJournal(Grammar base,
                              const std::vector<std::string>& batches,
                              const UpdateOptions& options);

struct ServiceOptions {
  ServiceOptions() {
    // Serving documents merge adaptively by default; growth_trigger
    // <= 0 merges only on Flush().
    update.growth_trigger = 0.5;
  }

  // Ingest (FromXml) configuration.
  CompressOptions compress;
  // Merge repair (localized or full) + adaptive merge trigger — shared
  // verbatim with CompressedXmlTree.
  UpdateOptions update;

  // Non-empty: every acknowledged batch is journaled to this document
  // directory before the ack, and every merge is a checkpoint
  // (DurableDocument's commit protocol); Open() recovers from it.
  // Empty: in-memory only.
  std::string durable_dir;
  JournalOptions journal;
  // Borrowed; nullptr (production) injects nothing.
  FaultInjector* fault_injector = nullptr;
};

class DocumentService {
 public:
  // A reader is a pinned, self-contained view — see overlay_view.h.
  using Reader = OverlayView;

  // A writer handle. All mutations run under the service's writer
  // mutex; concurrent writers serialize. Must not outlive the service.
  class Writer {
   public:
    // Applies one batch atomically: either every op is applied (and,
    // in durable mode, journaled) and the batch is acknowledged as one
    // new overlay version, or the document is unchanged.
    Status Apply(const std::vector<UpdateOp>& ops);

    // Single-op conveniences, same addressing as CompressedXmlTree
    // (1-based binary preorder, ⊥ slots included).
    Status Rename(int64_t preorder, std::string_view new_tag);
    Status InsertXmlBefore(int64_t preorder, std::string_view xml_fragment);
    Status Delete(int64_t preorder);

   private:
    friend class DocumentService;
    explicit Writer(DocumentService* service) : service_(service) {}
    DocumentService* service_;
  };

  // --- factories ---------------------------------------------------------

  // Parses + compresses per options.compress. With durable_dir set,
  // also initializes the on-disk document (DurableDocument::Create).
  static StatusOr<std::unique_ptr<DocumentService>> FromXml(
      std::string_view xml, const ServiceOptions& options = {});

  // Adopts a compressed grammar (validated).
  static StatusOr<std::unique_ptr<DocumentService>> FromGrammar(
      Grammar g, const ServiceOptions& options = {});

  // Serves an existing snapshot without copying the grammar — the
  // zero-copy bridge from CompressedXmlTree::Snapshot().
  static StatusOr<std::unique_ptr<DocumentService>> FromSnapshot(
      std::shared_ptr<const GrammarSnapshot> snapshot,
      const ServiceOptions& options = {});

  // Recovers the durable document in options.durable_dir (which must
  // be set) and serves it: the newest snapshot as the base, its
  // journal's batches as the overlay.
  static StatusOr<std::unique_ptr<DocumentService>> Open(
      const ServiceOptions& options);

  // Stops the merge thread (pending unmerged overlay batches are kept
  // acknowledged — in durable mode they are already journaled) and
  // closes the durable document.
  ~DocumentService();

  DocumentService(const DocumentService&) = delete;
  DocumentService& operator=(const DocumentService&) = delete;

  // --- handles -----------------------------------------------------------

  // Pins the current state: one atomic load, no lock. Take a fresh
  // reader per operation for latest-version reads, or hold one for a
  // consistent multi-query view.
  Reader OpenReader() const;

  Writer OpenWriter() { return Writer(this); }

  // Blocks until every batch acknowledged before the call is merged
  // into the base snapshot (forcing a merge if the trigger would not
  // fire) — in durable mode, checkpointed. FailedPrecondition if the
  // service shuts down first or the durable store is poisoned.
  Status Flush();

  struct Stats {
    int64_t acked_batches = 0;
    int64_t acked_ops = 0;
    int64_t merges = 0;
    int64_t merge_rules_rescanned = 0;
    int64_t overlay_batches = 0;
    int64_t overlay_edges = 0;
    int64_t base_version = 0;  // acked batches folded into base
  };
  Stats GetStats() const;

  const ServiceOptions& options() const { return options_; }

 private:
  struct PendingBatch {
    std::string encoded;  // journal-codec payload (EncodeBatch)
    BatchEffect effect;   // in the current base's lineage
  };

  // Builds a batch against the clone, interning into its label table
  // the names the batch introduces.
  using BatchBuilder =
      std::function<StatusOr<std::vector<UpdateOp>>(Grammar* clone)>;

  DocumentService(ServiceOptions options,
                  std::shared_ptr<const GrammarSnapshot> initial,
                  std::optional<DurableDocument> durable);

  // The one write body behind Apply and the single-op conveniences:
  // clone, build, apply, journal (durable mode), publish the overlay,
  // wake the merge thread.
  Status Write(const BatchBuilder& build);

  bool MergeNeededLocked() const;
  void MergeLoop();
  // One merge cycle: captures the overlay (and seals the journal)
  // under mu_, recompresses with mu_ released, splices under mu_
  // (publishing the checkpoint).
  void MergeOnce(std::unique_lock<std::mutex>& lk);
  // Serves `base` plus pending_ replayed onto it, refreshing each
  // pending batch's effect in base's lineage — the splice and Open.
  Status RebaseLocked(std::shared_ptr<const GrammarSnapshot> base);

  ServiceOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  // Readers atomic_load this without mu_; all stores happen under mu_
  // via atomic_store. The pointed-to state is immutable.
  std::shared_ptr<const ServiceState> state_;
  std::vector<PendingBatch> pending_;  // acked but unmerged, in order
  std::optional<DurableDocument> durable_;  // every call under mu_

  int64_t acked_batches_ = 0;
  int64_t acked_ops_ = 0;
  int64_t overlay_ops_ = 0;  // ops in pending_ (min_checkpoint_ops floor)
  int64_t merged_version_ = 0;
  int64_t flush_target_ = 0;
  int64_t merges_ = 0;
  int64_t merge_rescans_ = 0;
  bool stop_ = false;

  std::thread merge_thread_;
};

}  // namespace slg

#endif  // SLG_SERVICE_DOCUMENT_SERVICE_H_
