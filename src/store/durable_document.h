// Crash-consistent on-disk document: a sink that persists a grammar
// lineage someone else owns.
//
// A document directory holds at most two generations of each file:
//
//   snapshot-<g>.slg    checksummed SerializeGrammar image (snapshot.h)
//   journal-<g>.wal     batches committed on top of snapshot g (journal.h)
//
// The store keeps no grammar and applies nothing. Its owner (in the
// library, DocumentService) keeps one invariant: the newest snapshot
// is its base grammar, and the active journal's committed batches are
// exactly the batches acknowledged on top of that base.
//
// Commit protocol, in order:
//   1. AppendBatch journals one EncodeBatch payload (ops record +
//      commit marker) and fsyncs per FsyncPolicy.
//   2. A rotation has two steps. Seal appends a kCheckpoint marker to
//      journal g and fsyncs it UNCONDITIONALLY — the fallback chain
//      snapshot g + journal g must be complete before anything of
//      generation g+1 exists — then opens journal g+1 for the batches
//      that follow. PublishSnapshot later publishes the owner's merge
//      of (snapshot g + journal g) as snapshot g+1 and deletes
//      generation g-1.
//
// Recovery (Open) loads the newest valid snapshot (falling back past
// corrupt ones) and rolls the journals forward: a sealed journal is
// folded into the next snapshot by the owner's merge function (which
// must be deterministic, so the rebuilt snapshot is byte-identical to
// the one the crash interrupted), and the active journal's committed
// batches are handed back for the owner to replay. Torn journal tails
// are truncated.
//
// Failure model: any error on the durability path (append, seal,
// publish, sync) poisons the document — further calls return
// FailedPrecondition; reopening the directory recovers the last
// committed state. With FsyncPolicy::kEveryBatch, a batch whose
// AppendBatch returned Ok survives any later crash.
//
// Not thread-safe: the owner serializes every call (the FaultInjector
// is single-threaded too).

#ifndef SLG_STORE_DURABLE_DOCUMENT_H_
#define SLG_STORE_DURABLE_DOCUMENT_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/grammar/grammar.h"
#include "src/store/fault_injection.h"
#include "src/store/journal.h"

namespace slg {

struct DurableDocumentOptions {
  JournalOptions journal;
  // Borrowed; nullptr (production) injects nothing. The injector is
  // consulted on every file operation the document performs.
  FaultInjector* fault_injector = nullptr;
};

// What Open had to do to get back to a consistent state.
struct RecoveryStats {
  int64_t snapshot_generation = 0;  // generation of the snapshot served
  int64_t snapshots_skipped = 0;    // newer snapshots that were corrupt
  int64_t batches_replayed = 0;     // committed batches read back
  int64_t checkpoints_replayed = 0;  // rotations re-run from markers
  bool journal_tail_truncated = false;
};

// Folds a sealed journal into the snapshot it extends: given snapshot
// g's grammar and journal g's committed batches, returns the grammar
// snapshot g+1 holds. Must be the owner's own merge, deterministic.
using JournalFold = std::function<StatusOr<Grammar>(
    Grammar base, const std::vector<std::string>& batches)>;

class DurableDocument {
 public:
  DurableDocument(DurableDocument&&) = default;
  DurableDocument& operator=(DurableDocument&&) = default;

  // Initializes `dir` (created if missing) with snapshot generation 1
  // of `base` and an empty journal. Fails if the grammar is invalid.
  static StatusOr<DurableDocument> Create(
      const std::string& dir, const Grammar& base,
      const DurableDocumentOptions& options = {});

  // What Open hands back: the newest snapshot's grammar (after any
  // re-run rotation) and the active journal's committed batches, in
  // commit order, still encoded.
  struct Recovered {
    Grammar base;
    std::vector<std::string> batches;
  };

  // Recovers the document in `dir`: newest valid snapshot, rotations
  // re-run through `fold`, torn tail cut. NotFound if `dir` holds no
  // snapshot; DataLoss if no generation survives or a sealed journal
  // does not fold.
  static StatusOr<DurableDocument> Open(const std::string& dir,
                                        const DurableDocumentOptions& options,
                                        const JournalFold& fold,
                                        Recovered* out);

  // Journals one committed batch (an EncodeBatch payload).
  Status AppendBatch(std::string_view encoded);

  // Rotation step 1: seals journal g and opens journal g+1.
  Status Seal();

  // Rotation step 2: publishes `merged` — the fold of snapshot g and
  // the journal the last Seal closed — as snapshot g+1.
  Status PublishSnapshot(const Grammar& merged);

  // Fsyncs the journal (makes batches buffered by kNone/kEveryN
  // durable).
  Status Sync();

  // Closes the journal. The document is unusable afterwards.
  Status Close();

  // Generation of the active journal (one ahead of the newest
  // snapshot between Seal and PublishSnapshot).
  int64_t generation() const { return generation_; }
  const RecoveryStats& recovery_stats() const { return recovery_; }
  // True once a durability-path failure was observed; every further
  // call returns FailedPrecondition. Reopen the directory to recover.
  bool poisoned() const { return poisoned_; }

 private:
  DurableDocument(std::string dir, const DurableDocumentOptions& options)
      : dir_(std::move(dir)), options_(options) {}

  // FailedPrecondition if the document is poisoned or closed.
  Status Writable() const;

  // Deletes snapshots and journals older than generation-1, plus
  // leftover .tmp files from interrupted atomic writes.
  Status CleanupOldGenerations();

  Status Poison(Status s);

  std::string JournalPath(int64_t generation) const;

  std::string dir_;
  DurableDocumentOptions options_;
  std::optional<JournalWriter> journal_;
  int64_t generation_ = 0;
  bool poisoned_ = false;
  bool sealed_ = false;  // between Seal and PublishSnapshot
  RecoveryStats recovery_;
};

}  // namespace slg

#endif  // SLG_STORE_DURABLE_DOCUMENT_H_
