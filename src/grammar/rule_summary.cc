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

  // Pass 1, per rule body: compile the body into preorder positions
  // (label, kind, subtree end), then one bottom-up sweep over the
  // positions for static sizes and parameter intervals; also sizes
  // the piece and slot tables so that pass 2 fills them without
  // growing.
  size_t live = 0;
  g.ForEachRule([&](LabelId, const Tree& t) {
    live += static_cast<size_t>(t.LiveCount());
  });
  s.nodes_.reserve(live);
  size_t num_pieces = 0;
  size_t num_slots = 0;
  std::vector<int32_t> open;  // positions of the subtrees being emitted
  g.ForEachRule([&](LabelId lhs, const Tree& t) {
    Rule& r = s.rules_[static_cast<size_t>(lhs)];
    r.body_first = s.nodes_.size();
    num_slots += static_cast<size_t>(meta.Rank(lhs)) + 1;
    const NodeId root = meta.RhsRoot(lhs);
    auto here = [&] {
      return static_cast<int32_t>(s.nodes_.size() - r.body_first);
    };
    for (NodeId v = root; v != kNilNode;) {
      LabelId l = t.label(v);
      int32_t kind = meta.ParamIndex(l);
      if (kind == 0 && meta.IsNonterminal(l)) kind = kCallKind;
      const int32_t parent = open.empty() ? -1 : open.back();
      open.push_back(here());
      s.nodes_.push_back(BodyNode{l, kind, 0, parent, kNoParamBelow, 0, 0});
      if (NodeId c = t.first_child(v); c != kNilNode) {
        v = c;
        continue;
      }
      // Close every subtree that ends here, up to the next sibling.
      for (;;) {
        s.nodes_[r.body_first + static_cast<size_t>(open.back())].end = here();
        open.pop_back();
        if (v == root) {
          v = kNilNode;
          break;
        }
        if (NodeId n = t.next_sibling(v); n != kNilNode) {
          v = n;
          break;
        }
        v = t.parent(v);
      }
    }
    r.body_size = here();
    BodyNode* b = s.nodes_.data() + r.body_first;
    // Children before parents. SegTotal is 1 for terminals, 0 for
    // parameters and the flattened segment total for nonterminals —
    // all a single array load.
    for (int32_t i = r.body_size - 1; i >= 0; --i) {
      BodyNode& n = b[i];
      int64_t size = meta.SegTotal(n.label);
      int32_t lo = kNoParamBelow;
      int32_t hi = 0;
      if (n.kind > 0) {
        lo = hi = n.kind;
      } else if (n.kind == kCallKind) {
        for (int j = 0; j <= meta.Rank(n.label); ++j) {
          if (meta.SegSize(n.label, j) > 0) ++num_pieces;
        }
      } else {
        ++num_pieces;
      }
      for (int32_t c = i + 1; c < n.end; c = b[c].end) {
        size = SizeSatAdd(size, b[c].static_size);
        lo = std::min(lo, b[c].param_lo);
        hi = std::max(hi, b[c].param_hi);
      }
      n.static_size = size;
      n.param_lo = lo;
      n.param_hi = hi;
    }
  });

  // Pass 2, callees before callers: label filters, element totals and
  // piece tables (each needs the callee's version), from one walk of
  // each body in derived order. A step either visits a position or,
  // at a call, emits one of the callee's segments; a call emits
  // segment 0, then argument i followed by segment i for i = 1..m.
  SLG_CHECK(num_pieces < std::numeric_limits<uint32_t>::max());
  s.pieces_.reserve(num_pieces);
  s.slot_first_.resize(num_slots + 1);
  struct Step {
    int32_t i;
    int32_t seg;  // < 0: visit i; else emit this segment of i's callee
  };
  std::vector<Step> stack;
  int32_t next_slot = 0;
  for (LabelId rule : AntiSlOrder(g)) {
    Rule& r = s.rules_[static_cast<size_t>(rule)];
    const BodyNode* b = s.Body(rule);
    r.material_size = b[0].static_size;
    r.first_slot = next_slot;
    next_slot += meta.Rank(rule) + 1;
    s.slot_first_[static_cast<size_t>(r.first_slot)] =
        static_cast<uint32_t>(s.pieces_.size());
    int64_t at = 0;  // material nodes emitted so far
    int64_t elems = 0;
    auto push_children = [&](int32_t i, bool with_segments) {
      size_t mark = stack.size();
      int32_t seg = 1;
      for (int32_t c = i + 1; c < b[i].end; c = b[c].end) {
        stack.push_back(Step{c, -1});
        if (with_segments) stack.push_back(Step{i, seg++});
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
    stack.push_back(Step{0, -1});
    while (!stack.empty()) {
      Step step = stack.back();
      stack.pop_back();
      const BodyNode& n = b[step.i];
      if (step.seg >= 0) {
        emit_segment(n.label, step.seg);
      } else if (n.kind > 0) {
        s.slot_first_[static_cast<size_t>(r.first_slot + n.kind)] =
            static_cast<uint32_t>(s.pieces_.size());
      } else if (n.kind == kCallKind) {
        const Rule& cr = s.rules_[static_cast<size_t>(n.label)];
        for (size_t i = 0; i < 4; ++i) r.filter[i] |= cr.filter[i];
        elems = SizeSatAdd(elems, cr.material_elements);
        emit_segment(n.label, 0);
        push_children(step.i, /*with_segments=*/true);
      } else {
        uint32_t h = FilterHash(n.label);
        r.filter[h >> 6] |= uint64_t{1} << (h & 63);
        if (n.label != kNullLabel) elems = SizeSatAdd(elems, 1);
        s.pieces_.push_back(Piece{at, n.label, kTerminal});
        at = SizeSatAdd(at, 1);
        push_children(step.i, /*with_segments=*/false);
      }
    }
    r.material_elements = elems;
  }
  SLG_CHECK(s.pieces_.size() == num_pieces &&
            static_cast<size_t>(next_slot) == num_slots);
  s.slot_first_[num_slots] = static_cast<uint32_t>(num_pieces);

  s.derived_size_ = s.Body(s.start_)[0].static_size;
  s.derived_elements_ = s.rules_[static_cast<size_t>(s.start_)].material_elements;
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
