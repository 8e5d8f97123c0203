// QueryEngine — memoized evaluation of path queries directly on the
// grammar DAG, without decompression.
//
// The compiled plan (plan.h) turns a query into a stateset transducer
// over the binary encoding. The key observation making evaluation
// sub-linear: the transducer is *compositional over rules*. What a
// call to rule B contributes depends only on (B, ctx) — the stateset
// context arriving at the call — not on where the call sits in the
// document. The engine therefore evaluates each rule body once per
// distinct context it is reached under, memoizing per (rule, ctx):
//   * count     — query matches in the rule's material (arguments
//                 excluded; callers add those through the parameter
//                 intervals of the shared RuleSummary),
//   * exits     — the context flowing out at each parameter node,
//                 which is the context of the corresponding argument
//                 at every instantiation,
//   * matches   — per-position and per-segment material match
//                 counts (only for first/nth, which descend by them).
// Passes walk the summary's compiled bodies (flat preorder arrays,
// rule_summary.h), never the rule trees. Each memo entry's body is
// walked exactly once: a pass that reaches a call whose (callee, ctx)
// is unknown suspends there, evaluates the callee first and resumes
// at the same position. Evaluation therefore costs Θ(Σ |rhs(rule)|)
// summed over the memo entries (reported as body_nodes), plus one
// probe of an open-addressing (rule, ctx) table per call site, with
// no recursion — and no heap allocation per pass, memo entry or
// descent frame: pass contexts are carved LIFO from one stack (passes
// themselves form a stack), exits and match counts live in pooled
// arrays, and descent frames reuse their buffers; all of it is per
// Run(), sized by the bodies' live nodes rather than their arenas.
// Since a document's rule set is shared massively across the tree,
// the number of (rule, ctx) pairs — and so the work — is typically
// far below the document size: memo_entries is bounded by the rule
// count times the number of distinct contexts, and the contexts seen
// in practice collapse to a handful.
//
// Two shortcuts keep contexts from proliferating:
//   * the empty context contributes nothing and flows zeros to every
//     argument — a position reached under it is skipped with its
//     whole subtree, never memoized;
//   * a context of only descendant states whose pending labels the
//     rule's hashed label filter rules out cannot fire anywhere in
//     the rule's material, so it reproduces itself at every exit with
//     zero matches — also answered without a memo entry.
//
// first(p)/nth(p, k) reuse the memoized match counts to steer a
// root-to-match descent over the compiled bodies: at a terminal the
// per-position counts pick the child; at a call the callee's segment
// counts and the arguments' counts pick the piece of its derived
// preorder holding the match — an argument is entered in place, and
// only a match in the callee's own material enters its body (a
// parameter then resumes at the call's argument). The position comes
// out in O(d · rank) after evaluation, d being the match's depth in
// the binary encoding. (SnapshotNav::FindLabel selects one rule per
// step instead; match counts depend on the per-node context, so the
// engine cannot use its per-segment tables.)
//
// Status contract (matching the other read surfaces): malformed query
// text or an over-complex plan → InvalidArgument; nth with k < 1 →
// InvalidArgument; first/nth with fewer than k matches → NotFound.
// count/exists always succeed on a valid query.

#ifndef SLG_QUERY_ENGINE_H_
#define SLG_QUERY_ENGINE_H_

#include <cstdint>
#include <string_view>

#include "src/common/status.h"
#include "src/grammar/grammar.h"
#include "src/grammar/rule_summary.h"
#include "src/query/plan.h"
#include "src/query/query.h"

namespace slg {

// Work accounting of one evaluation, for tests and benchmarks.
// rules_visited is the number of distinct rules that needed at least
// one memo entry — by construction at most the grammar's rule count.
struct QueryStats {
  int64_t rules_visited = 0;
  int64_t memo_entries = 0;  // distinct (rule, ctx) pairs evaluated
  int64_t memo_hits = 0;     // call sites answered from the memo
  int64_t body_nodes = 0;    // rule-body nodes the evaluation walked
};

struct QueryResult {
  Aggregate aggregate = Aggregate::kCount;
  int64_t count = 0;   // matches in the document (always filled)
  bool exists = false;
  int64_t position = 0;  // 1-based binary preorder; first/nth only
  QueryStats stats;
};

class QueryEngine {
 public:
  // Borrows g and its summary for its lifetime — GrammarSnapshot
  // bundles both. Stateless between runs; any number of threads may
  // Run() on one instance concurrently.
  QueryEngine(const Grammar* g, const RuleSummary* summary)
      : g_(g), summary_(summary) {}

  StatusOr<QueryResult> Run(std::string_view query) const;
  StatusOr<QueryResult> Run(const Query& query) const;
  StatusOr<QueryResult> Run(const QueryPlan& plan) const;

 private:
  const Grammar* g_;
  const RuleSummary* summary_;
};

}  // namespace slg

#endif  // SLG_QUERY_ENGINE_H_
