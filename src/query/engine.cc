#include "src/query/engine.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/grammar/value.h"

namespace slg {

namespace {

// What one (rule, ctx) evaluation learned. Pointers into the memo
// stay valid across later insertions (node-based map), which the
// evaluation and descent passes rely on.
struct MemoEntry {
  int64_t count = 0;              // matches in the rule's material
  std::vector<uint64_t> exits;    // context at parameter j+1's position
  std::vector<int64_t> matches;   // per body NodeId; empty unless needed
};

class Evaluator {
 public:
  Evaluator(const Grammar& g, const RuleMeta& meta, const RuleSummary& sum,
            const QueryPlan& plan, const std::vector<LabelId>& bound,
            bool need_matches)
      : g_(g),
        meta_(meta),
        sum_(sum),
        plan_(plan),
        bound_(bound),
        need_matches_(need_matches),
        memo_(static_cast<size_t>(sum.num_labels())) {}

  const QueryStats& stats() const { return stats_; }

  // Memoizes (rule, ctx) and everything it transitively needs, then
  // returns the entry. Passes run on an explicit stack: a pass that
  // reaches a call whose (callee, ctx) is not memoized yet suspends
  // there and pushes the callee's pass; once that one is memoized the
  // caller resumes at the same call, where the lookup now hits. Every
  // memo entry's body is thus walked exactly once. The rule DAG is
  // acyclic, so no rule repeats on the stack and its depth stays
  // within the DAG's height.
  const MemoEntry* Ensure(LabelId rule, uint64_t ctx) {
    std::vector<Pass> stack;
    stack.push_back(Begin(rule, ctx));
    while (!stack.empty()) {
      Pass& p = stack.back();
      NodeId v = Advance(&p);
      if (v == kNilNode) {
        Finish(&p);
        stack.pop_back();
        continue;
      }
      stack.push_back(Begin(meta_.Rhs(p.rule).label(v),
                            p.ctx[static_cast<size_t>(v)]));
    }
    return Lookup(rule, ctx);
  }

  // Self-reproducing dead context: only descendant states, none of
  // whose pending predicates can fire anywhere in the rule's material
  // (per the summary's label filter — no false negatives). Such a
  // call contributes zero matches and hands every argument the same
  // context, so it needs no memo entry at all.
  bool CanPrune(LabelId rule, uint64_t ctx) const {
    if (!plan_.OnlyDescendantStates(ctx)) return false;
    for (uint64_t bits = ctx; bits != 0; bits &= bits - 1) {
      size_t i =
          static_cast<size_t>(plan_.StateStep(__builtin_ctzll(bits)));
      const QueryStep& step = plan_.query().steps[i];
      if (step.wildcard) return false;
      if (bound_[i] != kNoLabel && sum_.MayContain(rule, bound_[i])) {
        return false;
      }
    }
    return true;
  }

  // Root-to-match descent steered by memoized match counts — the
  // FindLabel walk with the occurrence index replaced by per-context
  // match counts. Only valid after Ensure() ran with need_matches and
  // reported at least k matches. Returns the 1-based binary preorder
  // position of the k-th match.
  int64_t Descend(uint64_t q0, int64_t k) {
    std::vector<DFrame> frames;
    frames.push_back(DFrame{g_.start(), kNilNode, Lookup(g_.start(), q0),
                            {}, {}});
    LabelId rule = g_.start();
    NodeId v = meta_.RhsRoot(rule);
    uint64_t cs = q0;  // context flowing at (rule, v)
    int64_t pos = 0;   // nodes strictly before the current subtree
    for (;;) {
      ResolveToTerminal(
          meta_, rule, v,
          [&]() -> std::pair<LabelId, NodeId> {
            // Parameter: resume at the call's argument. cs already
            // equals the argument's flow context — the context at the
            // parameter's position inside the callee is, by
            // construction of the exits, the argument's context.
            NodeId call = frames.back().call;
            frames.pop_back();
            return {frames.back().rule, call};
          },
          [&](LabelId callee) {
            const DFrame& f = frames.back();
            const Tree& t = meta_.Rhs(rule);
            DFrame nf;
            nf.rule = callee;
            nf.call = v;
            nf.entry = nullptr;
            if (cs != 0 && !CanPrune(callee, cs)) {
              nf.entry = Lookup(callee, cs);
              SLG_CHECK_MSG(nf.entry != nullptr,
                            "descent reached an unevaluated context");
            }
            size_t rank = static_cast<size_t>(meta_.Rank(callee));
            nf.size_prefix.resize(rank + 1);
            nf.match_prefix.resize(rank + 1);
            nf.size_prefix[0] = 0;
            nf.match_prefix[0] = 0;
            size_t j = 0;
            for (NodeId c = t.first_child(v); c != kNilNode;
                 c = t.next_sibling(c)) {
              nf.size_prefix[j + 1] = SizeSatAdd(
                  nf.size_prefix[j], sum_.DerivedIn(f.rule, c, f.size_prefix));
              nf.match_prefix[j + 1] =
                  SizeSatAdd(nf.match_prefix[j], MatchIn(f, c));
              ++j;
            }
            frames.push_back(std::move(nf));
            return true;
          });
      const DFrame& f = frames.back();
      const Tree& t = meta_.Rhs(rule);
      LabelId l = t.label(v);
      uint64_t own = plan_.Own(cs, l, bound_);
      if ((own & plan_.AcceptBit()) != 0) {
        if (k == 1) return pos + 1;
        --k;
      }
      pos = SizeSatAdd(pos, 1);
      uint64_t ctx1 = own & ~plan_.AcceptBit();
      uint64_t ctx2 = plan_.Next(cs, l, bound_);
      NodeId next = kNilNode;
      int ci = 0;
      for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
        ++ci;
        int64_t mc = MatchIn(f, c);
        if (k <= mc) {
          next = c;
          cs = ci == 1 ? ctx1 : ci == 2 ? ctx2 : 0;
          break;
        }
        k -= mc;
        pos = SizeSatAdd(pos, sum_.DerivedIn(f.rule, c, f.size_prefix));
      }
      SLG_CHECK_MSG(next != kNilNode, "match counts inconsistent in descent");
      v = next;
    }
  }

 private:
  // One (rule, ctx) evaluation in progress: the body's preorder, the
  // cursor into it, and the per-node flow contexts and material match
  // contributions gathered so far.
  struct Pass {
    LabelId rule;
    uint64_t q;
    std::vector<NodeId> order;
    size_t next = 0;
    std::vector<uint64_t> ctx;
    std::vector<int64_t> contrib;
  };

  // A descent frame: the rule we are inside, the call node in the
  // enclosing body, this rule's memo entry under the flow context
  // (null for pruned or empty contexts — their material match counts
  // are zero), and prefix sums over argument sizes / argument match
  // counts.
  struct DFrame {
    LabelId rule;
    NodeId call;
    const MemoEntry* entry;
    std::vector<int64_t> size_prefix;
    std::vector<int64_t> match_prefix;
  };

  const MemoEntry* Lookup(LabelId rule, uint64_t ctx) const {
    const auto& m = memo_[static_cast<size_t>(rule)];
    auto it = m.find(ctx);
    return it == m.end() ? nullptr : &it->second;
  }

  // Matches in the derived subtree of body node c within frame f:
  // memoized material counts plus the argument counts of the
  // parameter interval under c.
  int64_t MatchIn(const DFrame& f, NodeId c) const {
    static const std::vector<int64_t> kNoMatches;
    const std::vector<int64_t>& m =
        f.entry != nullptr ? f.entry->matches : kNoMatches;
    return sum_.InContext(f.rule, c, m, f.match_prefix);
  }

  Pass Begin(LabelId r, uint64_t q) const {
    Pass p{r, q, meta_.Rhs(r).Preorder(), 0, {}, {}};
    NodeId max_id = 0;
    for (NodeId v : p.order) max_id = std::max(max_id, v);
    p.ctx.assign(static_cast<size_t>(max_id) + 1, 0);
    p.contrib.assign(static_cast<size_t>(max_id) + 1, 0);
    p.ctx[static_cast<size_t>(meta_.RhsRoot(r))] = q;
    return p;
  }

  // Forward (preorder) part of the pass: flows contexts down the body
  // from the cursor on. Returns kNilNode once the whole body is done,
  // or the call node it stopped at — without stepping past it — when
  // the call's (callee, ctx) is not memoized yet.
  NodeId Advance(Pass* p) {
    const Tree& t = meta_.Rhs(p->rule);
    std::vector<uint64_t>& ctx = p->ctx;
    for (; p->next < p->order.size(); ++p->next) {
      NodeId v = p->order[p->next];
      uint64_t u = ctx[static_cast<size_t>(v)];
      LabelId l = t.label(v);
      if (meta_.ParamIndex(l) > 0) continue;
      if (meta_.IsNonterminal(l)) {
        uint64_t arg_default = 0;
        if (u != 0) {
          if (CanPrune(l, u)) {
            arg_default = u;
          } else if (const MemoEntry* e = Lookup(l, u)) {
            ++stats_.memo_hits;
            p->contrib[static_cast<size_t>(v)] = e->count;
            size_t j = 0;
            for (NodeId c = t.first_child(v); c != kNilNode;
                 c = t.next_sibling(c)) {
              ctx[static_cast<size_t>(c)] = e->exits[j++];
            }
            continue;
          } else {
            return v;
          }
        }
        for (NodeId c = t.first_child(v); c != kNilNode;
             c = t.next_sibling(c)) {
          ctx[static_cast<size_t>(c)] = arg_default;
        }
        continue;
      }
      // Terminal.
      uint64_t own = plan_.Own(u, l, bound_);
      if ((own & plan_.AcceptBit()) != 0) {
        p->contrib[static_cast<size_t>(v)] = 1;
      }
      NodeId c1 = t.first_child(v);
      if (c1 != kNilNode) {
        ctx[static_cast<size_t>(c1)] = own & ~plan_.AcceptBit();
        NodeId c2 = t.next_sibling(c1);
        if (c2 != kNilNode) {
          ctx[static_cast<size_t>(c2)] = plan_.Next(u, l, bound_);
          for (NodeId c = t.next_sibling(c2); c != kNilNode;
               c = t.next_sibling(c)) {
            ctx[static_cast<size_t>(c)] = 0;
          }
        }
      }
    }
    return kNilNode;
  }

  // Backward part of a completed pass: turns the contributions,
  // bottom-up and in place, into per-node material match counts, then
  // stores the memo entry. Parameters hold zero — callers add argument
  // counts through the summary's parameter intervals.
  void Finish(Pass* p) {
    const Tree& t = meta_.Rhs(p->rule);
    std::vector<int64_t>& nm = p->contrib;
    for (auto it = p->order.rbegin(); it != p->order.rend(); ++it) {
      NodeId v = *it;
      int64_t n = nm[static_cast<size_t>(v)];
      for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
        n = SizeSatAdd(n, nm[static_cast<size_t>(c)]);
      }
      nm[static_cast<size_t>(v)] = n;
    }
    LabelId r = p->rule;
    MemoEntry e;
    e.count = nm[static_cast<size_t>(meta_.RhsRoot(r))];
    int rank = meta_.Rank(r);
    e.exits.resize(static_cast<size_t>(rank));
    for (int j = 1; j <= rank; ++j) {
      e.exits[static_cast<size_t>(j - 1)] =
          p->ctx[static_cast<size_t>(meta_.ParamNode(r, j))];
    }
    if (need_matches_) e.matches = std::move(nm);
    auto& m = memo_[static_cast<size_t>(r)];
    if (m.empty()) ++stats_.rules_visited;
    m.emplace(p->q, std::move(e));
    ++stats_.memo_entries;
    stats_.body_nodes += static_cast<int64_t>(p->order.size());
  }

  const Grammar& g_;
  const RuleMeta& meta_;
  const RuleSummary& sum_;
  const QueryPlan& plan_;
  const std::vector<LabelId>& bound_;
  bool need_matches_;
  std::vector<std::unordered_map<uint64_t, MemoEntry>> memo_;  // by rule
  QueryStats stats_;
};

}  // namespace

StatusOr<QueryResult> QueryEngine::Run(std::string_view query) const {
  StatusOr<Query> q = Query::Parse(query);
  if (!q.ok()) return q.status();
  return Run(q.value());
}

StatusOr<QueryResult> QueryEngine::Run(const Query& query) const {
  StatusOr<QueryPlan> plan = QueryPlan::Compile(query);
  if (!plan.ok()) return plan.status();
  return Run(plan.value());
}

StatusOr<QueryResult> QueryEngine::Run(const QueryPlan& plan) const {
  const Query& q = plan.query();
  QueryResult res;
  res.aggregate = q.aggregate;
  const bool positional_agg =
      q.aggregate == Aggregate::kFirst || q.aggregate == Aggregate::kNth;
  const int64_t want = q.aggregate == Aggregate::kNth ? q.k : 1;
  // Bind step labels against this grammar; a name the document never
  // interned cannot match anywhere.
  std::vector<LabelId> bound(q.steps.size(), kNoLabel);
  bool impossible = false;
  for (size_t i = 0; i < q.steps.size(); ++i) {
    if (q.steps[i].wildcard) continue;
    bound[i] = g_->labels().Find(q.steps[i].label);
    if (bound[i] == kNoLabel) impossible = true;
  }
  if (impossible) {
    if (positional_agg) return Status::NotFound("query has no matches");
    return res;
  }
  Evaluator ev(*g_, *meta_, *summary_, plan, bound,
               /*need_matches=*/positional_agg);
  const MemoEntry* top = ev.Ensure(g_->start(), plan.InitialContext());
  res.count = top->count;
  res.exists = top->count > 0;
  if (positional_agg) {
    if (res.count < want) {
      res.stats = ev.stats();
      return Status::NotFound(res.count == 0
                                  ? "query has no matches"
                                  : "fewer than k query matches");
    }
    res.position = ev.Descend(plan.InitialContext(), want);
  }
  res.stats = ev.stats();
  return res;
}

}  // namespace slg
