// RuleSummary — the one per-rule record of the library.
//
// Path isolation, the cursor, point reads and the query engine all
// need the same per-rule facts: the rule body in a walkable form, its
// parameter-segment sizes (paper §III-A), element counts and a label
// index. A RuleSummary computes them once per grammar version — at
// snapshot publish time, off the writer lock, and once per write batch
// for path isolation — and every read surface shares it. Structural
// facts of labels (is it a rule, its rank, its parameter index) are
// flat array loads on Grammar and LabelTable and are not copied here.
//
// Per rule it stores the rule body compiled once into a flat array in
// preorder: position 0 is the root, the first child of position i is
// i + 1 (when the subtree ends past it), and the next sibling of a
// child c is end[c] (when that is still inside the parent). Every
// position holds
//   label and kind — a terminal, a call, or parameter y_j;
//   end — one past the last position of the node's subtree, and the
//       parent's position;
//   static_size — nodes of the tree the node derives with every
//       parameter substituted by the empty context (terminals count
//       1, calls their callee's material size);
//   the contiguous interval of parameter indices occurring under it
//       (parameters occur exactly once each, in preorder order — the
//       TreeRePair invariant — so the indices under any subtree form
//       an interval).
// The array holds the body's live nodes only, however sparse the
// rule's arena has become through updates, and every rule's array is
// a slice of one allocation. With per-call prefix sums over actual
// argument sizes, any additive per-node measure in context is then
// O(1) (DerivedIn / InContext).
//
// Per rule it additionally stores
//   * a 256-bit hashed label filter over the material of val(rule)
//     (descendant-label reachability; false positives possible, false
//     negatives never) — the query engine's pruning index,
//   * the element (non-⊥) count of the rule's material, giving
//     document element counts without ValueElementCount's extra pass,
//   * the rule's material piece table. "Material" is every node of
//     val(rule) that does not come from a parameter; in derived
//     preorder it is a sequence of pieces: each terminal of rhs(rule)
//     is one piece of size 1, and each call to B of rank m is the m+1
//     pieces of B's segments (SegSize(B, 0..m)), with the call's
//     arguments interleaved between them. A piece records its material
//     start in val(rule), its label (the terminal, or the callee B)
//     and, for a call piece, the slot of the callee segment it is.
//     Empty segments get no piece.
//
// Segment slots number every (rule, segment) pair of the grammar;
// callees' slots precede their callers' and a rule's slots are
// consecutive. Segment j of a rule is the material between its
// parameters y_j and y_j+1; its size and, for j >= 1, the body
// position of y_j are stored by slot, and its pieces are a contiguous
// run of the rule's table: [SlotBegin(s), SlotEnd(s)) for
// s = SegSlot(rule, j). Selecting a derived position is then one
// binary search per rule on the way down (the random-access scheme for
// grammar-compressed strings of Bille et al., SODA 2011, applied to
// the segments of a tree grammar), and counting a label per segment is
// one linear pass over the flat table (CountPerSlot).
//
// A RuleSummary borrows nothing. It describes the grammar it was built
// from; editing the start rule's body (path isolation) leaves the
// other rules' entries valid, which is all BatchUpdater relies on.
// Every other mutation needs a fresh build. All queries are const —
// share one instance between any number of threads.

#ifndef SLG_GRAMMAR_RULE_SUMMARY_H_
#define SLG_GRAMMAR_RULE_SUMMARY_H_

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/check.h"
#include "src/grammar/grammar.h"
#include "src/grammar/rule_meta.h"
#include "src/grammar/value.h"

namespace slg {

class RuleSummary {
 public:
  // Sentinel for "no parameter below this node": any real parameter
  // index compares smaller.
  static constexpr int32_t kNoParamBelow = std::numeric_limits<int32_t>::max();

  // One position of a compiled rule body (see the header comment).
  struct BodyNode {
    LabelId label;
    int32_t kind;    // kTerminalKind, kCallKind, or parameter index j >= 1
    int32_t end;     // one past the last position of the subtree
    int32_t parent;  // -1 at the root
    int32_t param_lo;  // parameter interval under the node;
    int32_t param_hi;  // lo > hi means none below
    int64_t static_size;
  };
  static constexpr int32_t kTerminalKind = 0;
  static constexpr int32_t kCallKind = -1;

  // One material piece (see the header comment).
  struct Piece {
    int64_t start;  // material nodes of val(rule) before it, saturating
    LabelId label;  // the terminal, or the callee
    int32_t slot;   // the callee segment's slot; kTerminal for a terminal
  };
  static constexpr int32_t kTerminal = -1;

  // One preorder compile per rule body, then one callee-first pass
  // over the rule DAG: per rule a bottom-up sweep of its body and one
  // walk in derived order.
  static RuleSummary Build(const Grammar& g);

  // The end-to-end benchmark's write replay times this overload after
  // its no-op tag build (rule_meta.h); it is Build(g).
  static RuleSummary Build(const Grammar& g, const RuleMeta&) {
    return Build(g);
  }

  RuleSummary(RuleSummary&&) = default;
  RuleSummary& operator=(RuleSummary&&) = default;

  int num_labels() const { return static_cast<int>(rules_.size()); }
  LabelId start() const { return start_; }

  // Nodes of val(S) (the ⊥-inclusive binary preorder space) / its
  // non-⊥ element count, both saturating at kSizeCap.
  int64_t DerivedSize() const { return derived_size_; }
  int64_t DerivedElementCount() const { return derived_elements_; }

  // The compiled body of a rule: BodySize(rule) positions in preorder.
  const BodyNode* Body(LabelId rule) const {
    return nodes_.data() + rules_[static_cast<size_t>(rule)].body_first;
  }
  int32_t BodySize(LabelId rule) const {
    return rules_[static_cast<size_t>(rule)].body_size;
  }

  int64_t StaticSize(LabelId rule, int32_t i) const {
    return Body(rule)[i].static_size;
  }
  // Material nodes / non-⊥ material nodes of val(rule) (parameters
  // contributing nothing).
  int64_t MaterialSize(LabelId rule) const {
    return rules_[static_cast<size_t>(rule)].material_size;
  }
  int64_t MaterialElements(LabelId rule) const {
    return rules_[static_cast<size_t>(rule)].material_elements;
  }

  // derived(i | arguments): the static size at position i plus the
  // argument-size prefix over the parameter interval under it.
  // size_prefix[j] = derived sizes of arguments 1..j summed,
  // size_prefix[0] = 0.
  int64_t DerivedIn(LabelId rule, int32_t i, const int64_t* size_prefix) const {
    return InContext(rule, i, StaticSize(rule, i), size_prefix);
  }

  // The same combinator for any additive per-node measure: the
  // caller's static value x at position i (occurrence counts, match
  // counts) plus its per-argument prefix sums over the parameter
  // interval under i.
  int64_t InContext(LabelId rule, int32_t i, int64_t x,
                    const int64_t* prefix) const {
    const BodyNode& n = Body(rule)[i];
    if (n.param_lo <= n.param_hi) {
      x = SizeSatAdd(x, prefix[n.param_hi] - prefix[n.param_lo - 1]);
    }
    return x;
  }

  // Whether `label` may occur in the material of val(rule). Hashed:
  // false positives possible, false negatives never.
  bool MayContain(LabelId rule, LabelId label) const {
    const Rule& r = rules_[static_cast<size_t>(rule)];
    uint32_t h = FilterHash(label);
    return (r.filter[h >> 6] >> (h & 63)) & 1;
  }

  // Slot of segment j (0..Rank(rule)) of rule.
  int32_t SegSlot(LabelId rule, int j) const {
    return rules_[static_cast<size_t>(rule)].first_slot + j;
  }
  // size(rule, j) for j in 0..Rank(rule): material nodes of val(rule)
  // before y1, between consecutive parameters, and after the last one
  // (saturating). They add up to MaterialSize(rule).
  int64_t SegSize(LabelId rule, int j) const {
    return seg_sizes_[static_cast<size_t>(SegSlot(rule, j))];
  }
  // Body position of parameter y_j (1-based) of rule.
  int32_t ParamPos(LabelId rule, int j) const {
    return param_pos_[static_cast<size_t>(SegSlot(rule, j))];
  }
  // The pieces of a segment slot, in derived order.
  const Piece* SlotBegin(int32_t slot) const {
    return pieces_.data() + slot_first_[static_cast<size_t>(slot)];
  }
  const Piece* SlotEnd(int32_t slot) const { return SlotBegin(slot + 1); }

  // Occurrences of `want` in the material of every segment, by slot
  // (saturating): one callee-first pass over the piece table.
  std::vector<int64_t> CountPerSlot(LabelId want) const;

  // Parameter interval under position i (lo > hi means none below) —
  // exposed for consumers that roll their own prefix combination.
  int32_t ParamLo(LabelId rule, int32_t i) const {
    return Body(rule)[i].param_lo;
  }
  int32_t ParamHi(LabelId rule, int32_t i) const {
    return Body(rule)[i].param_hi;
  }

 private:
  struct Rule {
    size_t body_first = 0;  // the rule's slice of nodes_
    int32_t body_size = 0;
    // Hashed label filter over the rule's material (256 bits).
    std::array<uint64_t, 4> filter = {0, 0, 0, 0};
    int64_t material_size = 0;
    int64_t material_elements = 0;
    int32_t first_slot = 0;  // SegSlot(rule, 0)
  };

  RuleSummary() = default;

  static uint32_t FilterHash(LabelId l) {
    return (static_cast<uint32_t>(l) * 2654435761u) >> 24;
  }

  std::vector<Rule> rules_;  // by LabelId; empty for non-rules
  // Every rule's compiled body, one slice per rule.
  std::vector<BodyNode> nodes_;
  // Flat piece table of every rule, rules in callee-first order, and
  // the index of each slot's first piece (plus one end sentinel).
  std::vector<Piece> pieces_;
  std::vector<uint32_t> slot_first_;
  // By slot: the segment's size, and the position of the parameter
  // opening it (-1 for segment 0).
  std::vector<int64_t> seg_sizes_;
  std::vector<int32_t> param_pos_;
  LabelId start_ = kNoLabel;
  int64_t derived_size_ = 0;
  int64_t derived_elements_ = 0;
};

}  // namespace slg

#endif  // SLG_GRAMMAR_RULE_SUMMARY_H_
