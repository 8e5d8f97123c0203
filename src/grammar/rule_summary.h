// RuleSummary — the shared per-rule summary layer of the read stack.
//
// Every read surface used to re-derive the same per-rule facts
// privately: SnapshotNav built static-size/parameter-interval tables
// in its constructor, GrammarCursor kept its own descent
// boundary-resolution loop, and snapshot statistics re-walked the DAG
// through ValueElementCount. A RuleSummary is
// that knowledge computed once — at snapshot publish time, off the
// writer lock — and consumed by SnapshotNav, the CompressedXmlTree /
// DocumentService read surfaces and the query engine (src/query/),
// which evaluates over the compiled bodies below.
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
//       parameter substituted by the empty context (sum of SegTotal
//       over the subtree);
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
//     pieces of B's segments (size(B,0..m), RuleMeta::SegSize), with
//     the call's arguments interleaved between them. A piece records
//     its material start in val(rule), its label (the terminal, or the
//     callee B) and, for a call piece, the slot of the callee segment
//     it is. Empty segments get no piece.
//
// Segment slots number every (rule, segment) pair of the grammar;
// callees' slots precede their callers' and a rule's slots are
// consecutive. Segment j of a rule is the material between its
// parameters y_j and y_j+1, so its pieces are a contiguous run of the
// rule's table: [SlotBegin(s), SlotEnd(s)) for s = SegSlot(rule, j).
// Selecting a derived position is then one binary search per rule on
// the way down (the random-access scheme for grammar-compressed
// strings of Bille et al., SODA 2011, applied to the segments of a
// tree grammar), and counting a label per segment is one linear pass
// over the flat table (CountPerSlot).
//
// A RuleSummary is a snapshot: it borrows nothing but is only valid
// for the grammar/meta it was built from and must be discarded after
// any mutation. All queries are const — share one instance between
// any number of threads.

#ifndef SLG_GRAMMAR_RULE_SUMMARY_H_
#define SLG_GRAMMAR_RULE_SUMMARY_H_

#include <array>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/grammar/grammar.h"
#include "src/grammar/rule_meta.h"
#include "src/grammar/value.h"

namespace slg {

// Bottom-up static sizes for every node of one rule body (or the
// start rule's tree), indexed by NodeId (dead ids hold 0) — the size
// table BatchUpdater maintains incrementally for the start rule.
// `meta` must be a with-sizes snapshot.
std::vector<int64_t> ComputeStaticSizes(const Tree& t, const RuleMeta& meta);

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

  // One preorder compile and one bottom-up pass per rule body, plus
  // one anti-SL pass over the rule DAG. `meta` must be a with-sizes
  // snapshot of g.
  static RuleSummary Build(const Grammar& g, const RuleMeta& meta);

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
  // the index of each slot's first piece (plus one end sentinel). Both
  // are allocated once, at their exact size.
  std::vector<Piece> pieces_;
  std::vector<uint32_t> slot_first_;
  LabelId start_ = kNoLabel;
  int64_t derived_size_ = 0;
  int64_t derived_elements_ = 0;
};

// Boundary-resolution core of GrammarCursor::ResolveDown, over the
// rule trees by NodeId (the query engine's first-match descent walks
// the compiled bodies instead). Advances (rule, node) — which may sit
// on a parameter or a call — across derivation boundaries until node
// is a terminal of rule's body:
//   * parameter y_j: pop() must remove the innermost frame and return
//     the enclosing (rule, call-node) pair; the descent resumes at the
//     call's j-th argument, in the caller's context;
//   * call to B: push(B) is invoked with (rule, node) still at the
//     call so the caller can capture its frame; returning true enters
//     B's body root — the body root derives the same subtree as the
//     call, so any position/count bookkeeping is unchanged — while
//     false stops the resolution at the call node.
template <typename PopFn, typename PushFn>
inline void ResolveToTerminal(const RuleMeta& meta, LabelId& rule,
                              NodeId& node, PopFn&& pop, PushFn&& push) {
  for (;;) {
    const Tree& t = meta.Rhs(rule);
    LabelId l = t.label(node);
    if (int pj = meta.ParamIndex(l); pj > 0) {
      std::pair<LabelId, NodeId> up = pop();
      rule = up.first;
      node = meta.Rhs(rule).Child(up.second, pj);
      continue;
    }
    if (meta.IsNonterminal(l)) {
      if (!push(l)) return;
      rule = l;
      node = meta.RhsRoot(l);
      continue;
    }
    return;  // terminal
  }
}

}  // namespace slg

#endif  // SLG_GRAMMAR_RULE_SUMMARY_H_
