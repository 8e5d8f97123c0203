#include "src/grammar/rule_summary.h"

#include <algorithm>

#include "src/grammar/orders.h"

namespace slg {

std::vector<int64_t> ComputeStaticSizes(const Tree& t, const RuleMeta& meta) {
  std::vector<NodeId> order = t.Preorder();
  NodeId max_id = 0;
  for (NodeId v : order) max_id = std::max(max_id, v);
  std::vector<int64_t> sizes(static_cast<size_t>(max_id) + 1, 0);
  // Children before parents. SegTotal is 1 for terminals, 0 for
  // parameters and the flattened segment total for nonterminals — all
  // a single array load.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    NodeId v = *it;
    int64_t n = meta.SegTotal(t.label(v));
    for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
      n = SizeSatAdd(n, sizes[static_cast<size_t>(c)]);
    }
    sizes[static_cast<size_t>(v)] = n;
  }
  return sizes;
}

RuleSummary RuleSummary::Build(const Grammar& g, const RuleMeta& meta) {
  RuleSummary s;
  s.rules_.resize(static_cast<size_t>(meta.num_labels()));
  s.start_ = g.start();

  // Pass 1, per rule body: static sizes (the shared helper) and
  // parameter intervals, one bottom-up sweep each; also sizes the
  // piece and slot tables so that pass 2 fills them without growing.
  size_t num_pieces = 0;
  size_t num_slots = 0;
  g.ForEachRule([&](LabelId lhs, const Tree& t) {
    Body& b = s.rules_[static_cast<size_t>(lhs)];
    b.static_size = ComputeStaticSizes(t, meta);
    size_t n = b.static_size.size();
    b.param_lo.assign(n, kNoParamBelow);
    b.param_hi.assign(n, 0);
    num_slots += static_cast<size_t>(meta.Rank(lhs)) + 1;
    std::vector<NodeId> order = t.Preorder();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      NodeId v = *it;
      LabelId l = t.label(v);
      int32_t lo = kNoParamBelow;
      int32_t hi = 0;
      if (int pj = meta.ParamIndex(l); pj > 0) {
        lo = hi = pj;
      } else if (meta.IsNonterminal(l)) {
        for (int j = 0; j <= meta.Rank(l); ++j) {
          if (meta.SegSize(l, j) > 0) ++num_pieces;
        }
      } else {
        ++num_pieces;
      }
      for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
        size_t ci = static_cast<size_t>(c);
        lo = std::min(lo, b.param_lo[ci]);
        hi = std::max(hi, b.param_hi[ci]);
      }
      b.param_lo[static_cast<size_t>(v)] = lo;
      b.param_hi[static_cast<size_t>(v)] = hi;
    }
  });

  // Pass 2, callees before callers: label filters, element totals and
  // piece tables (each needs the callee's version), from one walk of
  // each body in derived order. A step either visits a node or, at a
  // call, emits one of the callee's segments; a call emits segment 0,
  // then argument i followed by segment i for i = 1..m.
  SLG_CHECK(num_pieces < std::numeric_limits<uint32_t>::max());
  s.pieces_.reserve(num_pieces);
  s.slot_first_.resize(num_slots + 1);
  struct Step {
    NodeId v;
    int32_t seg;  // < 0: visit v; else emit this segment of v's callee
  };
  std::vector<Step> stack;
  int32_t next_slot = 0;
  for (LabelId r : AntiSlOrder(g)) {
    Body& b = s.rules_[static_cast<size_t>(r)];
    const Tree& t = meta.Rhs(r);
    b.material_size = b.static_size[static_cast<size_t>(meta.RhsRoot(r))];
    b.first_slot = next_slot;
    next_slot += meta.Rank(r) + 1;
    s.slot_first_[static_cast<size_t>(b.first_slot)] =
        static_cast<uint32_t>(s.pieces_.size());
    int64_t at = 0;  // material nodes emitted so far
    int64_t elems = 0;
    auto push_children = [&](NodeId v, bool with_segments) {
      size_t mark = stack.size();
      int32_t i = 1;
      for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
        stack.push_back(Step{c, -1});
        if (with_segments) stack.push_back(Step{v, i++});
      }
      std::reverse(stack.begin() + static_cast<std::ptrdiff_t>(mark),
                   stack.end());
    };
    auto emit_segment = [&](LabelId callee, int j) {
      int64_t size = meta.SegSize(callee, j);
      if (size == 0) return;
      s.pieces_.push_back(Piece{at, callee, s.SegSlot(callee, j)});
      at = SizeSatAdd(at, size);
    };
    stack.push_back(Step{meta.RhsRoot(r), -1});
    while (!stack.empty()) {
      Step step = stack.back();
      stack.pop_back();
      LabelId l = t.label(step.v);
      if (step.seg >= 0) {
        emit_segment(l, step.seg);
      } else if (int pj = meta.ParamIndex(l); pj > 0) {
        s.slot_first_[static_cast<size_t>(b.first_slot + pj)] =
            static_cast<uint32_t>(s.pieces_.size());
      } else if (meta.IsNonterminal(l)) {
        const Body& cb = s.rules_[static_cast<size_t>(l)];
        for (size_t i = 0; i < 4; ++i) b.filter[i] |= cb.filter[i];
        elems = SizeSatAdd(elems, cb.material_elements);
        emit_segment(l, 0);
        push_children(step.v, /*with_segments=*/true);
      } else {
        uint32_t h = FilterHash(l);
        b.filter[h >> 6] |= uint64_t{1} << (h & 63);
        if (l != kNullLabel) elems = SizeSatAdd(elems, 1);
        s.pieces_.push_back(Piece{at, l, kTerminal});
        at = SizeSatAdd(at, 1);
        push_children(step.v, /*with_segments=*/false);
      }
    }
    b.material_elements = elems;
  }
  SLG_CHECK(s.pieces_.size() == num_pieces &&
            static_cast<size_t>(next_slot) == num_slots);
  s.slot_first_[num_slots] = static_cast<uint32_t>(num_pieces);

  const Body& sb = s.rules_[static_cast<size_t>(s.start_)];
  s.derived_size_ = sb.static_size[static_cast<size_t>(meta.RhsRoot(s.start_))];
  s.derived_elements_ = sb.material_elements;
  return s;
}

std::vector<int64_t> RuleSummary::CountPerSlot(LabelId want) const {
  // Slots are laid out callees first, so every call piece's count is
  // final before its caller's slot is summed.
  size_t n = slot_first_.size() - 1;
  std::vector<int64_t> count(n, 0);
  for (size_t slot = 0; slot < n; ++slot) {
    int64_t c = 0;
    for (uint32_t i = slot_first_[slot]; i < slot_first_[slot + 1]; ++i) {
      const Piece& p = pieces_[i];
      if (p.slot == kTerminal) {
        if (p.label == want) c = SizeSatAdd(c, 1);
      } else {
        c = SizeSatAdd(c, count[static_cast<size_t>(p.slot)]);
      }
    }
    count[slot] = c;
  }
  return count;
}

}  // namespace slg
