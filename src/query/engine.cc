#include "src/query/engine.h"

#include <vector>

#include "src/common/check.h"
#include "src/grammar/value.h"

namespace slg {

namespace {

using BodyNode = RuleSummary::BodyNode;

// What one (rule, ctx) evaluation learned. The contexts at its
// parameters and, for first/nth, its match counts live in the
// evaluator's pools, addressed by offset — the pools grow while the
// entry is in use.
struct MemoEntry {
  LabelId rule;
  uint64_t ctx;
  int64_t count;   // matches in the rule's material
  size_t exits;    // exits_[exits + j - 1]: context at parameter y_j
  // With need_matches only:
  size_t matches;  // matches_[matches + i]: material matches under
                   // position i
  size_t segs;     // segs_[segs + j]: material matches in segment j
                   // (between y_j and y_j+1 in derived preorder)
};

class Evaluator {
 public:
  Evaluator(const Grammar& g, const RuleSummary& sum,
            const QueryPlan& plan, const std::vector<LabelId>& bound,
            bool need_matches)
      : g_(g),
        sum_(sum),
        plan_(plan),
        bound_(bound),
        need_matches_(need_matches),
        visited_(static_cast<size_t>(sum.num_labels()), 0),
        slots_(kInitialSlots, kEmpty) {}

  const QueryStats& stats() const { return stats_; }

  // Memoizes (rule, ctx) and everything it transitively needs, then
  // returns the entry. Passes run on an explicit stack: a pass that
  // reaches a call whose (callee, ctx) is not memoized yet suspends
  // there and pushes the callee's pass; once that one is memoized the
  // caller resumes at the same call, where the lookup now hits. Every
  // memo entry's body is thus walked exactly once. The rule DAG is
  // acyclic, so no rule repeats on the stack and its depth stays
  // within the DAG's height.
  const MemoEntry& Ensure(LabelId rule, uint64_t ctx) {
    Begin(rule, ctx);
    while (!passes_.empty()) {
      Pass& p = passes_.back();
      int32_t i = Advance(&p);
      if (i < 0) {
        Finish();
        continue;
      }
      const BodyNode& call = sum_.Body(p.rule)[i];
      Begin(call.label, ctx_[p.ctx + static_cast<size_t>(i)]);
    }
    return entries_[static_cast<size_t>(Lookup(rule, ctx))];
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
    const LabelId start = g_.start();
    frames_.push_back(DFrame{start, -1, Lookup(start, q0), 0});
    size_prefix_.push_back(0);
    match_prefix_.push_back(0);
    LabelId rule = start;
    int32_t i = 0;
    uint64_t cs = q0;  // context flowing at (rule, i)
    int64_t pos = 0;   // nodes strictly before the current subtree
    for (;;) {
      const BodyNode* b = sum_.Body(rule);
      const BodyNode& v = b[i];
      if (v.kind > 0) {
        // Parameter y_j: resume at the call's j-th argument. cs
        // already equals the argument's flow context — the context at
        // the parameter inside the callee is, by construction of the
        // exits, the argument's context.
        const DFrame f = frames_.back();
        frames_.pop_back();
        size_prefix_.resize(f.prefix);
        match_prefix_.resize(f.prefix);
        rule = frames_.back().rule;
        b = sum_.Body(rule);
        i = f.call + 1;
        for (int j = 1; j < v.kind; ++j) i = b[i].end;
        continue;
      }
      const DFrame& f = frames_.back();
      if (v.kind == RuleSummary::kCallKind) {
        // The call derives the callee's segment 0, argument 1,
        // segment 1, ..., argument m, segment m. The memoized segment
        // counts and the arguments' counts in this frame say which of
        // them holds the k-th match: an argument is entered in place,
        // and only a match in the callee's own material enters its
        // body — so a chain of calls nested in each other's arguments
        // costs O(rank) per call, not a walk through every callee.
        int32_t entry = -1;
        if (cs != 0 && !CanPrune(v.label, cs)) {
          entry = Lookup(v.label, cs);
          SLG_CHECK_MSG(entry >= 0, "descent reached an unevaluated context");
        }
        const MemoEntry* e =
            entry >= 0 ? &entries_[static_cast<size_t>(entry)] : nullptr;
        const int64_t k_call = k;
        const int64_t pos_call = pos;
        int32_t arg = -1;
        int32_t a = i + 1;  // argument j + 1
        for (int j = 0;; ++j) {
          int64_t in_seg =
              e != nullptr ? segs_[e->segs + static_cast<size_t>(j)] : 0;
          if (k <= in_seg) break;
          k -= in_seg;
          pos = SizeSatAdd(pos, sum_.SegSize(v.label, j));
          SLG_CHECK_MSG(a < v.end, "match counts inconsistent in descent");
          int64_t in_arg = MatchIn(f, a);
          if (k <= in_arg) {
            arg = a;
            // A pruned context reproduces itself at every exit.
            if (e != nullptr) cs = exits_[e->exits + static_cast<size_t>(j)];
            break;
          }
          k -= in_arg;
          pos = SizeSatAdd(pos, DerivedIn(f, a));
          a = b[a].end;
        }
        if (arg >= 0) {
          i = arg;
          continue;
        }
        // Enter the callee at its root, which derives the same
        // subtree as the call: capture the argument prefix sums in
        // the caller's frame first.
        k = k_call;
        pos = pos_call;
        DFrame nf{v.label, i, entry, size_prefix_.size()};
        size_prefix_.push_back(0);
        match_prefix_.push_back(0);
        for (int32_t c = i + 1; c < v.end; c = b[c].end) {
          int64_t size = DerivedIn(f, c);
          int64_t matches = MatchIn(f, c);
          size_prefix_.push_back(SizeSatAdd(size_prefix_.back(), size));
          match_prefix_.push_back(SizeSatAdd(match_prefix_.back(), matches));
        }
        frames_.push_back(nf);
        rule = v.label;
        i = 0;
        continue;
      }
      uint64_t own = plan_.Own(cs, v.label, bound_);
      if ((own & plan_.AcceptBit()) != 0) {
        if (k == 1) return pos + 1;
        --k;
      }
      pos = SizeSatAdd(pos, 1);
      uint64_t ctx1 = own & ~plan_.AcceptBit();
      uint64_t ctx2 = plan_.Next(cs, v.label, bound_);
      int32_t next = -1;
      int ci = 0;
      for (int32_t c = i + 1; c < v.end; c = b[c].end) {
        ++ci;
        int64_t mc = MatchIn(f, c);
        if (k <= mc) {
          next = c;
          cs = ci == 1 ? ctx1 : ci == 2 ? ctx2 : 0;
          break;
        }
        k -= mc;
        pos = SizeSatAdd(pos, DerivedIn(f, c));
      }
      SLG_CHECK_MSG(next >= 0, "match counts inconsistent in descent");
      i = next;
    }
  }

 private:
  static constexpr size_t kInitialSlots = 64;  // a power of two
  static constexpr int32_t kEmpty = -1;

  // One (rule, ctx) evaluation in progress: the cursor into the
  // compiled body, the segment it is in (the last parameter passed),
  // the material matches counted so far, and where its scratch lives.
  // Contexts are carved from ctx_ above the enclosing pass's (passes
  // form a stack, so the carving is LIFO); the exits and — with
  // need_matches — the per-position contributions and segment counts
  // are written straight into the pools the memo entry keeps.
  struct Pass {
    LabelId rule;
    uint64_t q;
    int32_t next;
    int32_t size;
    int32_t seg;
    int64_t count;
    size_t ctx;
    size_t exits;
    size_t matches;
    size_t segs;
  };

  // A descent frame: the rule we are inside, the call position in the
  // enclosing body, this rule's memo entry under the flow context (-1
  // for pruned or empty contexts — their material match counts are
  // zero), and where its argument prefix sums start in size_prefix_ /
  // match_prefix_ (Rank + 1 values each, carved LIFO).
  struct DFrame {
    LabelId rule;
    int32_t call;
    int32_t entry;
    size_t prefix;
  };

  static size_t Hash(LabelId rule, uint64_t ctx) {
    uint64_t h = ctx * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(rule);
    h ^= h >> 32;
    h *= 0xD6E8FEB86659FD93ull;
    return static_cast<size_t>(h ^ (h >> 32));
  }

  // Index of the (rule, ctx) entry, or -1. Open addressing with
  // linear probing over slots_ (a power of two, at most half full).
  int32_t Lookup(LabelId rule, uint64_t ctx) const {
    size_t mask = slots_.size() - 1;
    for (size_t s = Hash(rule, ctx) & mask;; s = (s + 1) & mask) {
      int32_t e = slots_[s];
      if (e == kEmpty) return -1;
      const MemoEntry& m = entries_[static_cast<size_t>(e)];
      if (m.rule == rule && m.ctx == ctx) return e;
    }
  }

  void Insert(int32_t e) {
    if (2 * (entries_.size() + 1) > slots_.size()) {
      slots_.assign(2 * slots_.size(), kEmpty);
      for (size_t old = 0; old < entries_.size(); ++old) {
        Place(static_cast<int32_t>(old));
      }
    }
    Place(e);
  }

  void Place(int32_t e) {
    const MemoEntry& m = entries_[static_cast<size_t>(e)];
    size_t mask = slots_.size() - 1;
    size_t s = Hash(m.rule, m.ctx) & mask;
    while (slots_[s] != kEmpty) s = (s + 1) & mask;
    slots_[s] = e;
  }

  // Matches / derived nodes in the subtree of body position c within
  // frame f: the memoized material value plus the argument values of
  // the parameter interval under c.
  int64_t MatchIn(const DFrame& f, int32_t c) const {
    int64_t x = 0;
    if (f.entry >= 0) {
      x = matches_[entries_[static_cast<size_t>(f.entry)].matches +
                   static_cast<size_t>(c)];
    }
    return sum_.InContext(f.rule, c, x, match_prefix_.data() + f.prefix);
  }
  int64_t DerivedIn(const DFrame& f, int32_t c) const {
    return sum_.DerivedIn(f.rule, c, size_prefix_.data() + f.prefix);
  }

  void Begin(LabelId r, uint64_t q) {
    const size_t rank = static_cast<size_t>(g_.labels().Rank(r));
    Pass p{r,        q, 0, sum_.BodySize(r), 0, 0, ctx_top_, exits_.size(),
           matches_.size(), segs_.size()};
    ctx_top_ += static_cast<size_t>(p.size);
    if (ctx_.size() < ctx_top_) ctx_.resize(ctx_top_);
    ctx_[p.ctx] = q;
    exits_.resize(exits_.size() + rank, 0);
    if (need_matches_) {
      matches_.resize(matches_.size() + static_cast<size_t>(p.size), 0);
      segs_.resize(segs_.size() + rank + 1, 0);
    }
    passes_.push_back(p);
  }

  // Forward (preorder) part of the pass: flows contexts down the body
  // from the cursor on. Returns -1 once the whole body is done, or the
  // call position it stopped at — without stepping past it — when the
  // call's (callee, ctx) is not memoized yet. A position whose context
  // is empty is skipped with its whole subtree: it matches nothing and
  // hands empty contexts down, which is what the untouched exits and
  // counts already hold. Only the segment moves on, past the
  // parameters the subtree holds.
  int32_t Advance(Pass* p) {
    const BodyNode* b = sum_.Body(p->rule);
    uint64_t* ctx = ctx_.data() + p->ctx;
    uint64_t* exits = exits_.data() + p->exits;
    int64_t* contrib = nullptr;
    int64_t* segs = nullptr;
    if (need_matches_) {
      contrib = matches_.data() + p->matches;
      segs = segs_.data() + p->segs;
    }
    const uint64_t accept = plan_.AcceptBit();
    int32_t i = p->next;
    int32_t seg = p->seg;
    while (i < p->size) {
      const BodyNode& v = b[i];
      uint64_t u = ctx[i];
      if (u == 0) {
        if (v.param_lo <= v.param_hi) seg = v.param_hi;
        i = v.end;
        continue;
      }
      if (v.kind > 0) {
        exits[v.kind - 1] = u;
        seg = v.kind;
        ++i;
        continue;
      }
      if (v.kind == RuleSummary::kCallKind) {
        if (CanPrune(v.label, u)) {
          for (int32_t c = i + 1; c < v.end; c = b[c].end) ctx[c] = u;
          ++i;
          continue;
        }
        int32_t e = Lookup(v.label, u);
        if (e < 0) {
          p->next = i;
          p->seg = seg;
          return i;
        }
        ++stats_.memo_hits;
        const MemoEntry& m = entries_[static_cast<size_t>(e)];
        p->count = SizeSatAdd(p->count, m.count);
        const uint64_t* in = exits_.data() + m.exits;
        for (int32_t c = i + 1; c < v.end; c = b[c].end) ctx[c] = *in++;
        if (contrib != nullptr) {
          contrib[i] = m.count;
          // The callee's segment j lands in the segment this body is
          // in after argument j's parameters.
          const int64_t* callee = segs_.data() + m.segs;
          int32_t s = seg;
          segs[s] = SizeSatAdd(segs[s], *callee++);
          for (int32_t c = i + 1; c < v.end; c = b[c].end) {
            if (b[c].param_lo <= b[c].param_hi) s = b[c].param_hi;
            segs[s] = SizeSatAdd(segs[s], *callee++);
          }
        }
        ++i;
        continue;
      }
      // Terminal.
      uint64_t own = plan_.Own(u, v.label, bound_);
      if ((own & accept) != 0) {
        p->count = SizeSatAdd(p->count, 1);
        if (contrib != nullptr) {
          contrib[i] = 1;
          segs[seg] = SizeSatAdd(segs[seg], 1);
        }
      }
      int32_t c = i + 1;
      if (c < v.end) {
        ctx[c] = own & ~accept;
        c = b[c].end;
        if (c < v.end) {
          ctx[c] = plan_.Next(u, v.label, bound_);
          for (c = b[c].end; c < v.end; c = b[c].end) ctx[c] = 0;
        }
      }
      ++i;
    }
    p->next = i;
    p->seg = seg;
    return -1;
  }

  // Completes the top pass: with need_matches, turns its
  // contributions, bottom-up and in place, into per-position material
  // match counts (parameters hold zero — callers add argument counts
  // through the summary's parameter intervals); then files the memo
  // entry and releases the pass's contexts.
  void Finish() {
    const Pass p = passes_.back();
    passes_.pop_back();
    if (need_matches_) {
      // Reverse preorder: a position's subtree is complete before it
      // is added into its parent.
      const BodyNode* b = sum_.Body(p.rule);
      int64_t* nm = matches_.data() + p.matches;
      for (int32_t i = p.size - 1; i > 0; --i) {
        if (nm[i] != 0) nm[b[i].parent] = SizeSatAdd(nm[b[i].parent], nm[i]);
      }
    }
    entries_.push_back(
        MemoEntry{p.rule, p.q, p.count, p.exits, p.matches, p.segs});
    Insert(static_cast<int32_t>(entries_.size() - 1));
    uint8_t& seen = visited_[static_cast<size_t>(p.rule)];
    if (seen == 0) {
      seen = 1;
      ++stats_.rules_visited;
    }
    ++stats_.memo_entries;
    stats_.body_nodes += p.size;
    ctx_top_ = p.ctx;
  }

  const Grammar& g_;
  const RuleSummary& sum_;
  const QueryPlan& plan_;
  const std::vector<LabelId>& bound_;
  bool need_matches_;
  // Evaluation state, all per Run(): passes and their context stack,
  // the memo (entries, their pools, the open-addressing index) and
  // the descent's frames with their prefix-sum stacks.
  std::vector<Pass> passes_;
  std::vector<uint64_t> ctx_;
  size_t ctx_top_ = 0;
  std::vector<MemoEntry> entries_;
  std::vector<uint64_t> exits_;
  std::vector<int64_t> matches_;
  std::vector<int64_t> segs_;
  std::vector<uint8_t> visited_;  // by rule: has a memo entry
  std::vector<int32_t> slots_;
  std::vector<DFrame> frames_;
  std::vector<int64_t> size_prefix_;
  std::vector<int64_t> match_prefix_;
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
  Evaluator ev(*g_, *summary_, plan, bound,
               /*need_matches=*/positional_agg);
  const MemoEntry& top = ev.Ensure(g_->start(), plan.InitialContext());
  res.count = top.count;
  res.exists = top.count > 0;
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
