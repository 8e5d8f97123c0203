#include "src/query/plan.h"

namespace slg {

StatusOr<QueryPlan> QueryPlan::Compile(Query q) {
  // Parse() already guarantees these; hand-built queries go through
  // the same gate.
  if (q.steps.empty()) {
    return Status::InvalidArgument("query path must have at least one step");
  }
  for (const QueryStep& s : q.steps) {
    if (!s.wildcard && s.label.empty()) {
      return Status::InvalidArgument("query step needs a label name or '*'");
    }
    if (s.positional < 0) {
      return Status::InvalidArgument("positional index must be >= 1");
    }
    if (s.positional > 0 && s.axis == Axis::kDescendant) {
      return Status::InvalidArgument(
          "positional predicate requires the child axis");
    }
  }
  if (q.aggregate == Aggregate::kNth && q.k < 1) {
    return Status::InvalidArgument("nth index must be >= 1");
  }
  QueryPlan p;
  int64_t states = 0;
  std::vector<int32_t> base;  // per step: first state index
  base.reserve(q.steps.size());
  for (const QueryStep& s : q.steps) {
    int64_t width = s.positional > 0 ? s.positional : 1;
    // All step states plus the accept bit must fit one uint64_t.
    if (width > 63 - states) {
      return Status::InvalidArgument(
          "query needs more than 64 automaton states");
    }
    base.push_back(static_cast<int32_t>(states));
    states += width;
  }
  p.accept_bit_ = uint64_t{1} << states;
  p.num_states_ = static_cast<int>(states) + 1;
  p.state_step_.assign(static_cast<size_t>(p.num_states_),
                       static_cast<int32_t>(q.steps.size()));
  p.step_mask_.assign(q.steps.size(), 0);
  p.after_.assign(static_cast<size_t>(p.num_states_), 0);
  for (size_t i = 0; i < q.steps.size(); ++i) {
    const QueryStep& s = q.steps[i];
    const uint64_t after =
        i + 1 == q.steps.size() ? p.accept_bit_ : uint64_t{1} << base[i + 1];
    int64_t width = s.positional > 0 ? s.positional : 1;
    for (int64_t c = 0; c < width; ++c) {
      const int32_t state = base[i] + static_cast<int32_t>(c);
      const uint64_t bit = uint64_t{1} << state;
      p.state_step_[static_cast<size_t>(state)] = static_cast<int32_t>(i);
      p.step_mask_[i] |= bit;
      p.after_[static_cast<size_t>(state)] = after;
      if (s.axis == Axis::kDescendant) p.desc_mask_ |= bit;
      if (s.positional == 0) p.plain_mask_ |= bit;
      if (s.wildcard) p.wildcard_mask_ |= bit;
      if (c + 1 == width) p.advance_mask_ |= bit;
    }
  }
  p.q_ = std::move(q);
  return p;
}

}  // namespace slg
