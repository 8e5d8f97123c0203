#include "src/core/snapshot_nav.h"

#include <algorithm>
#include <vector>

#include "src/common/check.h"
#include "src/grammar/value.h"

namespace slg {

using Piece = RuleSummary::Piece;

SnapshotNav::SnapshotNav(const RuleSummary* summary) : summary_(summary) {}

SnapshotNav::SnapshotNav(const Grammar* g, const RuleMeta* meta)
    : owned_summary_(std::make_shared<const RuleSummary>(
          RuleSummary::Build(*g, *meta))),
      summary_(owned_summary_.get()) {}

StatusOr<LabelId> SnapshotNav::LabelAt(int64_t preorder) const {
  if (preorder < 1 || preorder > DerivedSize()) {
    return Status::OutOfRange("preorder position outside the document");
  }
  // The target is material node k (0-based) of segment `slot`. Its
  // material offset in the rule is below the cap (every node before it
  // precedes it in the document too), so the pieces it is compared
  // with up to the one holding it carry exact starts.
  int32_t slot = summary_->SegSlot(summary_->start(), 0);
  int64_t k = preorder - 1;
  for (;;) {
    const Piece* first = summary_->SlotBegin(slot);
    int64_t at = first->start + k;
    const Piece* p =
        std::upper_bound(first, summary_->SlotEnd(slot), at,
                         [](int64_t x, const Piece& q) { return x < q.start; });
    --p;  // the last piece starting at or before `at`
    if (p->slot == RuleSummary::kTerminal) return p->label;
    k = at - p->start;
    slot = p->slot;
  }
}

StatusOr<int64_t> SnapshotNav::FindLabel(LabelId want, int64_t k) const {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (want == kNoLabel ||
      static_cast<size_t>(want) >= static_cast<size_t>(summary_->num_labels())) {
    return Status::NotFound("tag never occurs");
  }
  std::vector<int64_t> count = summary_->CountPerSlot(want);
  int32_t slot = summary_->SegSlot(summary_->start(), 0);
  if (count[static_cast<size_t>(slot)] < k) {
    return Status::NotFound("fewer than k occurrences of tag");
  }
  // pos: document nodes before the current segment's first node.
  int64_t pos = 0;
  for (;;) {
    const Piece* first = summary_->SlotBegin(slot);
    const Piece* last = summary_->SlotEnd(slot);
    const Piece* p = first;
    for (;; ++p) {
      SLG_CHECK_MSG(p != last, "occurrence counts inconsistent");
      int64_t c = p->slot == RuleSummary::kTerminal
                      ? (p->label == want ? 1 : 0)
                      : count[static_cast<size_t>(p->slot)];
      if (k <= c) break;
      k -= c;
    }
    // A saturated start means the piece begins beyond the cap.
    pos = p->start >= kSizeCap ? kSizeCap
                               : SizeSatAdd(pos, p->start - first->start);
    if (p->slot == RuleSummary::kTerminal) return SizeSatAdd(pos, 1);
    slot = p->slot;
  }
}

}  // namespace slg
