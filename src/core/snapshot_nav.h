// SnapshotNav — derived-position queries over an immutable grammar,
// without mutation and without decompression.
//
// Path isolation (BatchUpdater::Isolate) answers "what sits at binary
// preorder position n of val(G)" by partially decompressing the path
// into the start rule — it *damages* the grammar, which is fine on the
// write path (the damage feeds the next recompression) but unusable
// for serving reads from a shared immutable snapshot. SnapshotNav is
// the read-only counterpart: it selects through the material piece
// tables of the shared RuleSummary layer (grammar/rule_summary.h),
// built once per snapshot and shared with the cursor and the query
// engine.
//
// Both queries descend one *rule* per step, never one node: the target
// always lies in one segment of the current rule's material, and the
// piece of that segment holding it is either a terminal (the answer)
// or a segment of a callee, which becomes the next step. With h the
// rule-nesting height of the grammar:
//   * LabelAt binary-searches each segment's pieces by material start
//     — O(h · log|rhs|);
//   * FindLabel first counts the wanted label per segment in one
//     callee-first pass over the piece table, then scans each
//     segment's pieces by count — O(|G| + h · max|rhs|).
// Neither touches the grammar or allocates beyond FindLabel's count
// table.
//
// All sizes saturate at kSizeCap (value.h); positions beyond the cap
// are not addressable, matching every other size computation in the
// library.
//
// A SnapshotNav borrows a RuleSummary and must be discarded after any
// mutation of the grammar it was built from — GrammarSnapshot
// (service/) bundles both with shared ownership. The two-argument
// constructor builds (and owns) the summary itself, for standalone
// use. Queries are const and touch no mutable state, so any number of
// threads may query one instance concurrently.

#ifndef SLG_CORE_SNAPSHOT_NAV_H_
#define SLG_CORE_SNAPSHOT_NAV_H_

#include <cstdint>
#include <memory>

#include "src/common/status.h"
#include "src/grammar/grammar.h"
#include "src/grammar/rule_meta.h"
#include "src/grammar/rule_summary.h"

namespace slg {

class SnapshotNav {
 public:
  // Borrows summary for its lifetime; does no work of its own.
  explicit SnapshotNav(const RuleSummary* summary);

  // Convenience: builds and owns the RuleSummary of g (meta must be a
  // with-sizes snapshot of g).
  SnapshotNav(const Grammar* g, const RuleMeta* meta);

  SnapshotNav(SnapshotNav&&) = default;
  SnapshotNav& operator=(SnapshotNav&&) = default;

  // Number of nodes of val(S) (the ⊥-inclusive binary preorder
  // space), saturating at kSizeCap.
  int64_t DerivedSize() const { return summary_->DerivedSize(); }

  // Label at the 1-based binary preorder position of val(S).
  // OutOfRange outside [1, DerivedSize()].
  StatusOr<LabelId> LabelAt(int64_t preorder) const;

  // 1-based binary preorder position of the k-th (1-based) node of
  // val(S) labeled `want`. InvalidArgument when k < 1; NotFound when
  // fewer than k occur.
  StatusOr<int64_t> FindLabel(LabelId want, int64_t k) const;

 private:
  std::shared_ptr<const RuleSummary> owned_summary_;  // two-arg ctor only
  const RuleSummary* summary_;
};

}  // namespace slg

#endif  // SLG_CORE_SNAPSHOT_NAV_H_
