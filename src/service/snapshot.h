// GrammarSnapshot — an immutable, shareable compressed document
// version.
//
// The concurrency story of the whole service layer rests on one
// invariant: a GrammarSnapshot never changes after construction. It
// bundles a Grammar with everything reads need — its RuleSummary (the
// per-rule record the cursor, the query engine and point reads share),
// a SnapshotNav over it (derived-position queries) and cached document
// statistics — all built eagerly inside Make() before
// the shared_ptr ever escapes, so no reader can observe a
// half-initialized index and no query path touches mutable state.
// Any number of threads may call the const query methods concurrently.
//
// Lifetime is plain shared_ptr reference counting: a reader that
// copied the pointer keeps its version alive for as long as it cares
// to look at it, however many newer versions get published meanwhile —
// the memory-reclamation half of the RCU pattern DocumentService
// builds on top (docs/SERVICE.md).
//
// Snapshots are also the interchange type between the surfaces:
// CompressedXmlTree is a single-threaded facade over one, and
// DocumentService::FromSnapshot / CompressedXmlTree::Snapshot() move
// documents between the two without copying the grammar.

#ifndef SLG_SERVICE_SNAPSHOT_H_
#define SLG_SERVICE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "src/api/options.h"
#include "src/common/status.h"
#include "src/core/cursor.h"
#include "src/core/snapshot_nav.h"
#include "src/grammar/grammar.h"
#include "src/grammar/rule_summary.h"
#include "src/query/engine.h"

namespace slg {

class GrammarSnapshot {
 public:
  // Takes ownership of g (which must be a valid binary-XML grammar —
  // factories validate before calling) and builds every index.
  // `version` is the publisher's sequence number — the service stamps
  // the count of acknowledged batches the snapshot reflects.
  static std::shared_ptr<const GrammarSnapshot> Make(Grammar g,
                                                     int64_t version = 0);

  // The indexes hold pointers into the owned grammar: the object is
  // pinned — heap-allocate via Make and share the pointer.
  GrammarSnapshot(const GrammarSnapshot&) = delete;
  GrammarSnapshot& operator=(const GrammarSnapshot&) = delete;

  const Grammar& grammar() const { return g_; }
  const std::shared_ptr<const RuleSummary>& summary() const {
    return summary_;
  }
  const SnapshotNav& nav() const { return nav_; }

  int64_t version() const { return version_; }
  // Grammar size in edges (the compression measure of the benches).
  int64_t edges() const { return edges_; }
  // Nodes of the ⊥-inclusive binary encoding / non-⊥ element count.
  int64_t node_count() const { return nav_.DerivedSize(); }
  int64_t element_count() const { return element_count_; }

  // --- reads (all const, safe to call from any thread) -------------------

  // Label name at a 1-based binary preorder position. Non-mutating —
  // unlike write-path isolation, nothing is inlined.
  StatusOr<std::string> LabelAt(int64_t preorder) const;

  // Binary preorder position of the k-th (1-based) node with the
  // given tag. InvalidArgument when k < 1; NotFound for an unknown
  // tag or fewer than k occurrences. O(grammar + depth), never
  // decompresses.
  StatusOr<int64_t> FindElement(std::string_view tag, int64_t k = 1) const;

  // Path query (src/query/) evaluated on the grammar with per-rule
  // memoization — no decompression. InvalidArgument on malformed
  // text; NotFound when first()/nth() has too few matches.
  StatusOr<QueryResult> RunQuery(std::string_view query) const;
  StatusOr<QueryResult> RunQuery(const Query& query) const;

  // Serialized document (materializes the tree once).
  StatusOr<std::string> ToXml(bool pretty = false) const;

  // Cursor over this version, sharing the snapshot's RuleSummary. The
  // cursor borrows the grammar: keep the snapshot pointer alive for
  // the cursor's lifetime.
  GrammarCursor Cursor() const;

 private:
  GrammarSnapshot(Grammar g, int64_t version);

  Grammar g_;
  std::shared_ptr<const RuleSummary> summary_;  // built over g_
  SnapshotNav nav_;  // borrows *summary_
  int64_t version_ = 0;
  int64_t edges_ = 0;
  int64_t element_count_ = 0;
};

// Parses and compresses an XML document into a fresh snapshot — the
// one ingest path shared by CompressedXmlTree::FromXml and
// DocumentService::FromXml (sequential or sharded per the options).
StatusOr<std::shared_ptr<const GrammarSnapshot>> CompressXmlToSnapshot(
    std::string_view xml, const CompressOptions& options = {});

}  // namespace slg

#endif  // SLG_SERVICE_SNAPSHOT_H_
