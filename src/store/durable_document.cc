#include "src/store/durable_document.h"

#include <utility>

#include "src/grammar/validate.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/store/io.h"
#include "src/store/snapshot.h"

namespace slg {

namespace {

bool IsTmpName(std::string_view name) {
  constexpr std::string_view kSuffix = ".tmp";
  return name.size() > kSuffix.size() &&
         name.substr(name.size() - kSuffix.size()) == kSuffix;
}

}  // namespace

std::string DurableDocument::JournalPath(int64_t generation) const {
  return JoinPath(dir_, JournalFileName(generation));
}

Status DurableDocument::Poison(Status s) {
  poisoned_ = true;
  return s;
}

Status DurableDocument::Writable() const {
  if (poisoned_) {
    return Status::FailedPrecondition(
        "document is poisoned by an earlier durability failure; reopen to "
        "recover the last committed state");
  }
  if (!journal_) {
    return Status::FailedPrecondition("document is closed");
  }
  return Status::Ok();
}

StatusOr<DurableDocument> DurableDocument::Create(
    const std::string& dir, const Grammar& base,
    const DurableDocumentOptions& options) {
  SLG_RETURN_IF_ERROR(Validate(base));
  FaultInjector* fi = options.fault_injector;
  SLG_RETURN_IF_ERROR(CreateDirIfMissing(dir, fi));
  DurableDocument doc(dir, options);
  doc.generation_ = 1;
  SLG_RETURN_IF_ERROR(WriteSnapshot(dir, doc.generation_, base, fi));
  StatusOr<JournalWriter> j =
      JournalWriter::Create(doc.JournalPath(doc.generation_), options.journal,
                            fi);
  if (!j.ok()) return j.status();
  doc.journal_.emplace(j.take());
  SLG_RETURN_IF_ERROR(SyncDir(dir, fi));
  doc.recovery_.snapshot_generation = doc.generation_;
  return StatusOr<DurableDocument>(std::move(doc));
}

Status DurableDocument::AppendBatch(std::string_view encoded) {
  obs::TraceSpan span("store.apply_batch");
  SLG_RETURN_IF_ERROR(Writable());
  Status logged = journal_->AppendBatch(encoded);
  if (!logged.ok()) return Poison(std::move(logged));
  return Status::Ok();
}

Status DurableDocument::Seal() {
  obs::TraceSpan span("store.checkpoint");
  SLG_RETURN_IF_ERROR(Writable());
  if (sealed_) {
    return Status::FailedPrecondition("the previous seal awaits its snapshot");
  }
  FaultInjector* fi = options_.fault_injector;
  // The marker fsyncs unconditionally: from here on the chain
  // snapshot g + journal g reproduces snapshot g+1, so every later
  // step of the rotation is redo-able.
  Status sealed = journal_->AppendCheckpoint(generation_ + 1);
  if (!sealed.ok()) return Poison(std::move(sealed));
  Status closed = journal_->Close();
  journal_.reset();
  if (!closed.ok()) return Poison(std::move(closed));
  ++generation_;
  StatusOr<JournalWriter> j =
      JournalWriter::Create(JournalPath(generation_), options_.journal, fi);
  if (!j.ok()) return Poison(j.status());
  journal_.emplace(j.take());
  Status dir_synced = SyncDir(dir_, fi);
  if (!dir_synced.ok()) return Poison(std::move(dir_synced));
  sealed_ = true;
  return Status::Ok();
}

Status DurableDocument::PublishSnapshot(const Grammar& merged) {
  obs::TraceSpan span("store.checkpoint");
  SLG_RETURN_IF_ERROR(Writable());
  if (!sealed_) return Status::FailedPrecondition("no sealed journal to fold");
  sealed_ = false;
  Status published =
      WriteSnapshot(dir_, generation_, merged, options_.fault_injector);
  if (!published.ok()) return Poison(std::move(published));
  Status cleaned = CleanupOldGenerations();
  if (!cleaned.ok()) return Poison(std::move(cleaned));
  return Status::Ok();
}

Status DurableDocument::CleanupOldGenerations() {
  StatusOr<std::vector<std::string>> names = ListDir(dir_);
  if (!names.ok()) return names.status();
  FaultInjector* fi = options_.fault_injector;
  for (const std::string& name : names.value()) {
    int64_t gen = 0;
    bool stale =
        IsTmpName(name) ||
        (ParseSnapshotFileName(name, &gen) && gen < generation_ - 1) ||
        (ParseJournalFileName(name, &gen) && gen < generation_ - 1);
    if (stale) {
      SLG_RETURN_IF_ERROR(RemoveFile(JoinPath(dir_, name), fi));
    }
  }
  return Status::Ok();
}

Status DurableDocument::Sync() {
  SLG_RETURN_IF_ERROR(Writable());
  Status s = journal_->Sync();
  if (!s.ok()) return Poison(std::move(s));
  return Status::Ok();
}

Status DurableDocument::Close() {
  if (!journal_) return Status::Ok();
  Status s = journal_->Close();
  journal_.reset();
  return s;
}

StatusOr<DurableDocument> DurableDocument::Open(
    const std::string& dir, const DurableDocumentOptions& options,
    const JournalFold& fold, Recovered* out) {
  static obs::Counter& replayed_batches =
      obs::MetricsRegistry::Global().GetCounter("store.journal.replayed_batches");
  FaultInjector* fi = options.fault_injector;
  StatusOr<LoadedSnapshot> loaded = LoadLatestSnapshot(dir);
  if (!loaded.ok()) return loaded.status();
  LoadedSnapshot snap = loaded.take();
  Grammar base = std::move(snap.grammar);
  DurableDocument doc(dir, options);
  doc.generation_ = snap.generation;
  doc.recovery_.snapshot_generation = snap.generation;
  doc.recovery_.snapshots_skipped = snap.skipped;
  out->batches.clear();

  // Roll the journals forward. Each iteration reads one journal file;
  // a checkpoint marker at its end means the writer sealed it — fold
  // it into the next snapshot and continue with the next generation's
  // journal. The loop ends at the active journal: one with no
  // checkpoint marker, or none on disk at all.
  for (;;) {
    std::string path = doc.JournalPath(doc.generation_);
    StatusOr<JournalReplay> replayed = ReplayJournal(path);
    if (!replayed.ok()) {
      if (replayed.status().code() == StatusCode::kNotFound) {
        // The journal's creation never became durable: start a fresh
        // one (it can hold no committed batch).
        StatusOr<JournalWriter> j =
            JournalWriter::Create(path, options.journal, fi);
        if (!j.ok()) return j.status();
        doc.journal_.emplace(j.take());
        SLG_RETURN_IF_ERROR(SyncDir(dir, fi));
        break;
      }
      return replayed.status();
    }
    JournalReplay replay = replayed.take();
    const int64_t n = static_cast<int64_t>(replay.batches.size());
    doc.recovery_.batches_replayed += n;
    replayed_batches.Add(n);
    if (replay.ends_with_checkpoint) {
      if (replay.next_generation != doc.generation_ + 1) {
        return Status::DataLoss("journal " + path +
                                " is sealed to a non-successor generation");
      }
      // Re-run the rotation. The fold is the owner's deterministic
      // merge, so the snapshot rebuilt here is byte-identical to what
      // the dead writer did (or would have) put on disk.
      StatusOr<Grammar> folded = fold(std::move(base), replay.batches);
      if (!folded.ok()) {
        // A committed, CRC-valid record that cannot be applied means
        // the corruption beat the checksum (or the writer was buggy);
        // there is no later state to fall back to.
        return Status::DataLoss("journal " + path +
                                " does not fold into the next snapshot: " +
                                folded.status().message());
      }
      base = folded.take();
      doc.generation_ = replay.next_generation;
      ++doc.recovery_.checkpoints_replayed;
      SLG_RETURN_IF_ERROR(WriteSnapshot(dir, doc.generation_, base, fi));
      doc.recovery_.snapshot_generation = doc.generation_;
      continue;
    }
    // Active journal: cut any torn tail, then reopen for append. A
    // file whose header never made it durable is rebuilt from scratch
    // (it can hold no committed batch).
    doc.recovery_.journal_tail_truncated |= replay.truncated_tail;
    if (!replay.header_ok) {
      StatusOr<JournalWriter> j =
          JournalWriter::Create(path, options.journal, fi);
      if (!j.ok()) return j.status();
      doc.journal_.emplace(j.take());
      break;
    }
    if (replay.truncated_tail) {
      SLG_RETURN_IF_ERROR(TruncateFile(path, replay.valid_bytes, fi));
    }
    StatusOr<JournalWriter> j =
        JournalWriter::OpenExisting(path, n, options.journal, fi);
    if (!j.ok()) return j.status();
    doc.journal_.emplace(j.take());
    out->batches = std::move(replay.batches);
    break;
  }

  SLG_RETURN_IF_ERROR(doc.CleanupOldGenerations());
  // Every recovery path ends in a full structural validation — a base
  // handed back by Open is one the rest of the library can trust.
  SLG_RETURN_IF_ERROR(Validate(base));
  out->base = std::move(base);
  return StatusOr<DurableDocument>(std::move(doc));
}

}  // namespace slg
