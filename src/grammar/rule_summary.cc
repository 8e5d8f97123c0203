#include "src/grammar/rule_summary.h"

#include <algorithm>

#include "src/grammar/orders.h"

namespace slg {

RuleSummary RuleSummary::Build(const Grammar& g) {
  const LabelTable& labels = g.labels();
  RuleSummary s;
  s.rules_.resize(static_cast<size_t>(labels.size()));
  s.start_ = g.start();

  // Pass 1, per rule body in any order: compile the body into preorder
  // positions (label, kind, subtree end, parent), and bound the piece
  // and slot tables so that pass 2 fills them without growing.
  size_t live = 0;
  g.ForEachRule([&](LabelId, const Tree& t) {
    live += static_cast<size_t>(t.LiveCount());
  });
  s.nodes_.reserve(live);
  size_t max_pieces = 0;
  size_t num_slots = 0;
  std::vector<int32_t> open;  // positions of the subtrees being emitted
  g.ForEachRule([&](LabelId lhs, const Tree& t) {
    Rule& r = s.rules_[static_cast<size_t>(lhs)];
    r.body_first = s.nodes_.size();
    num_slots += static_cast<size_t>(labels.Rank(lhs)) + 1;
    const NodeId root = t.root();
    auto here = [&] {
      return static_cast<int32_t>(s.nodes_.size() - r.body_first);
    };
    for (NodeId v = root; v != kNilNode;) {
      LabelId l = t.label(v);
      int32_t kind = labels.ParamIndex(l);
      if (kind == 0 && g.HasRule(l)) {
        kind = kCallKind;
        max_pieces += static_cast<size_t>(labels.Rank(l)) + 1;
      } else if (kind == 0) {
        ++max_pieces;
      }
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
  });

  // Pass 2, callees before callers — everything here needs the
  // callee's version. Per rule, a bottom-up sweep over the positions
  // gives static sizes and parameter intervals; then one walk of the
  // body in derived order gives the label filter, the element total,
  // the piece table and the segment sizes. A step of the walk either
  // visits a position or, at a call, emits one of the callee's
  // segments; a call emits segment 0, then argument i followed by
  // segment i for i = 1..m.
  SLG_CHECK(max_pieces < std::numeric_limits<uint32_t>::max());
  s.pieces_.reserve(max_pieces);
  s.slot_first_.resize(num_slots + 1);
  s.seg_sizes_.assign(num_slots, 0);
  s.param_pos_.assign(num_slots, -1);
  struct Step {
    int32_t i;
    int32_t seg;  // < 0: visit i; else emit this segment of i's callee
  };
  std::vector<Step> stack;
  int32_t next_slot = 0;
  for (LabelId rule : AntiSlOrder(g)) {
    Rule& r = s.rules_[static_cast<size_t>(rule)];
    BodyNode* b = s.nodes_.data() + r.body_first;
    for (int32_t i = r.body_size - 1; i >= 0; --i) {
      BodyNode& n = b[i];
      int64_t size = n.kind == kCallKind
                         ? s.rules_[static_cast<size_t>(n.label)].material_size
                         : n.kind == kTerminalKind ? 1 : 0;
      int32_t lo = kNoParamBelow;
      int32_t hi = 0;
      if (n.kind > 0) lo = hi = n.kind;
      for (int32_t c = i + 1; c < n.end; c = b[c].end) {
        size = SizeSatAdd(size, b[c].static_size);
        lo = std::min(lo, b[c].param_lo);
        hi = std::max(hi, b[c].param_hi);
      }
      n.static_size = size;
      n.param_lo = lo;
      n.param_hi = hi;
    }
    r.material_size = b[0].static_size;
    r.first_slot = next_slot;
    next_slot += labels.Rank(rule) + 1;
    s.slot_first_[static_cast<size_t>(r.first_slot)] =
        static_cast<uint32_t>(s.pieces_.size());
    int64_t at = 0;  // material nodes emitted so far
    int64_t elems = 0;
    int cur = 0;  // the segment being filled: the last parameter seen
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
    auto emit = [&](LabelId label, int32_t slot, int64_t size) {
      s.pieces_.push_back(Piece{at, label, slot});
      at = SizeSatAdd(at, size);
      int64_t& seg = s.seg_sizes_[static_cast<size_t>(r.first_slot + cur)];
      seg = SizeSatAdd(seg, size);
    };
    auto emit_segment = [&](LabelId callee, int j) {
      int32_t slot = s.SegSlot(callee, j);
      int64_t size = s.seg_sizes_[static_cast<size_t>(slot)];
      if (size > 0) emit(callee, slot, size);
    };
    stack.push_back(Step{0, -1});
    while (!stack.empty()) {
      Step step = stack.back();
      stack.pop_back();
      const BodyNode& n = b[step.i];
      if (step.seg >= 0) {
        emit_segment(n.label, step.seg);
      } else if (n.kind > 0) {
        SLG_CHECK_MSG(n.kind == cur + 1, "parameters not in preorder order");
        cur = n.kind;
        const size_t slot = static_cast<size_t>(r.first_slot + cur);
        s.slot_first_[slot] = static_cast<uint32_t>(s.pieces_.size());
        s.param_pos_[slot] = step.i;
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
        emit(n.label, kTerminal, 1);
        push_children(step.i, /*with_segments=*/false);
      }
    }
    SLG_CHECK_MSG(cur == labels.Rank(rule),
                  "rule does not use all its parameters");
    r.material_elements = elems;
  }
  SLG_CHECK(static_cast<size_t>(next_slot) == num_slots);
  s.slot_first_[num_slots] = static_cast<uint32_t>(s.pieces_.size());

  s.derived_size_ = s.rules_[static_cast<size_t>(s.start_)].material_size;
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
