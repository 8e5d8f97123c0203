// QueryPlan — a parsed Query compiled to a stateset transducer over
// the binary first-child/next-sibling encoding.
//
// A state is a pair (i, c): the first i steps of the path are matched
// by some ancestor chain reaching the current position, and — for a
// positional child step — c step-matching siblings have already been
// consumed on the current child chain. Statesets are uint64_t bit
// masks (one bit per state, plus one accept bit), so a query may use
// at most 64 states: descendant and non-positional child steps cost
// one state each, a child step with predicate [k] costs k (counters
// 0..k-1). Compile rejects larger queries with InvalidArgument.
//
// Evaluation threads a stateset *context* through the encoded tree:
// the context of a node describes the obligations arriving from
// above. At a node with label l,
//   Own(ctx, l)  — the stateset holding *at* the node: descendant
//       states persist downward, and states whose next step matches l
//       (respecting the positional counter) advance; the accept bit
//       set here means the node matches the query.
//   Next(ctx, l) — the context of the node's next sibling (child-2
//       edge): positional counters advance past this sibling, all
//       other states pass through unchanged.
// The first-child (child-1) context is Own minus the accept bit;
// children beyond the second (generic, non-XML grammars) get the
// empty context. The document root evaluates under InitialContext(),
// state (0, 0) — the root sits on the top-level chain, so a leading
// "//" matches it too.
//
// Per-step label names are resolved to LabelIds by the engine (the
// plan is grammar-independent); transitions take the resolved binding
// so a plan can be compiled once and run against many snapshots.

#ifndef SLG_QUERY_PLAN_H_
#define SLG_QUERY_PLAN_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/query/query.h"
#include "src/tree/label_table.h"

namespace slg {

class QueryPlan {
 public:
  // InvalidArgument when the query needs more than 64 states.
  static StatusOr<QueryPlan> Compile(Query q);

  const Query& query() const { return q_; }
  int num_states() const { return num_states_; }

  uint64_t InitialContext() const { return 1; }  // state (0, 0)
  uint64_t AcceptBit() const { return accept_bit_; }

  // Whether every state of ctx belongs to a descendant-axis step —
  // such contexts are self-reproducing wherever no predicate fires,
  // which is what makes the engine's filter shortcut sound.
  bool OnlyDescendantStates(uint64_t ctx) const {
    return (ctx & ~desc_mask_) == 0;
  }

  // Step index of a state (num_steps() for the accept state): the
  // state's pending predicate is query().steps[StateStep(s)].
  int StateStep(int s) const { return state_step_[static_cast<size_t>(s)]; }

  // Transitions at a node labeled l. `bound` holds the per-step
  // LabelId binding (kNoLabel = the name does not exist in this
  // grammar, so the predicate can never fire; unused for wildcards).
  // Both are a few mask operations over the states whose step
  // predicate matches l.
  uint64_t Own(uint64_t ctx, LabelId l,
               const std::vector<LabelId>& bound) const {
    uint64_t out = ctx & desc_mask_;
    for (uint64_t bits = ctx & MatchStates(l, bound) & advance_mask_;
         bits != 0; bits &= bits - 1) {
      out |= after_[static_cast<size_t>(__builtin_ctzll(bits))];
    }
    return out;
  }
  uint64_t Next(uint64_t ctx, LabelId l,
                const std::vector<LabelId>& bound) const {
    uint64_t positional = ctx & ~plain_mask_;
    uint64_t hit = positional & MatchStates(l, bound);
    return (ctx & plain_mask_) | (positional & ~hit) |
           ((hit & ~advance_mask_) << 1);
  }

 private:
  QueryPlan() = default;

  // States whose step predicate matches a node labeled l. ⊥ slots are
  // not elements and never match, not even "*".
  uint64_t MatchStates(LabelId l, const std::vector<LabelId>& bound) const {
    if (l == kNullLabel) return 0;
    uint64_t m = wildcard_mask_;
    for (size_t i = 0; i < bound.size(); ++i) {
      if (bound[i] == l) m |= step_mask_[i];
    }
    return m;
  }

  Query q_;
  int num_states_ = 0;
  std::vector<int32_t> state_step_;  // per state: owning step index
  std::vector<uint64_t> step_mask_;  // per step: its states
  // Per state: the state entered when its step matches and completes
  // (the next step's first state, or the accept bit).
  std::vector<uint64_t> after_;
  uint64_t desc_mask_ = 0;      // states of descendant steps
  uint64_t plain_mask_ = 0;     // states of steps without [k]
  uint64_t wildcard_mask_ = 0;  // states of "*" steps
  // States that complete their step on a match: every state of a
  // step without [k], the last counter k-1 of a step with one.
  uint64_t advance_mask_ = 0;
  uint64_t accept_bit_ = 0;
};

}  // namespace slg

#endif  // SLG_QUERY_PLAN_H_
