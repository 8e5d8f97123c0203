// GrammarCursor — navigation over val(G) without decompression.
//
// The paper's premise is that SLCF grammars are "queryable without
// decompression" (citing the traversal results of [2,4]); this cursor
// provides that capability: constant-space-per-level navigation over
// the derived tree, maintaining a stack of (rule, position) frames
// through call and parameter boundaries. Down/Up are amortized
// O(grammar depth); the cursor never materializes any part of the
// tree.
//
// The cursor walks the compiled rule bodies of a RuleSummary
// (grammar/rule_summary.h): a place is a (rule, preorder position)
// pair, the first child of position i is i + 1, the next sibling of c
// is end[c], and each position stores its parent; a call is left for
// the callee's body root and re-entered from the parameter position
// the summary stores per segment slot. The summary is shared between
// cursor copies (and with the snapshot that built it), so copying a
// cursor stays cheap (frame stack + refcount).
//
// Navigation operates on the binary encoding; element-level helpers
// (FirstChildElement / NextSiblingElement) skip the ⊥ slots.
//
// The cursor observes a snapshot: it must not outlive the grammar and
// must be discarded after any mutation (updates, recompression).

#ifndef SLG_CORE_CURSOR_H_
#define SLG_CORE_CURSOR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/grammar/grammar.h"
#include "src/grammar/rule_summary.h"

namespace slg {

class GrammarCursor {
 public:
  // Positions the cursor at the root of val(g). The grammar must be
  // valid and non-empty. Builds the RuleSummary of g.
  explicit GrammarCursor(const Grammar* g);

  // Shares `summary` (which must be built from *g) instead of building
  // a fresh one — for callers creating many short-lived cursors.
  GrammarCursor(const Grammar* g, std::shared_ptr<const RuleSummary> summary);

  // Label of the current derived node.
  LabelId Label() const;
  const std::string& LabelName() const;
  bool IsNull() const { return Label() == kNullLabel; }

  // Number of children of the current derived node (= rank of its
  // label).
  int NumChildren() const;

  // Moves to the i-th (1-based) child. Returns false (and stays put)
  // if the node has fewer than i children.
  bool Down(int i);

  // Moves to the parent. Returns false at the derived root.
  bool Up();

  // Moves to the next / previous sibling. Returns false at the last /
  // first child (or at the root).
  bool Right();
  bool Left();

  bool AtRoot() const;
  void ToRoot();

  // Depth in the derived tree (root = 0). O(1) (maintained).
  int Depth() const { return depth_; }

  // --- binary-XML helpers (rank-2 encodings) ---------------------------

  // First child element of the current element: Down(1), skipping if ⊥.
  bool FirstChildElement();
  // Next sibling element: Down(2) from the current element, skipping ⊥.
  bool NextSiblingElement();
  // Parent *element* (follows next-sibling chains upward).
  bool ParentElement();

 private:
  using BodyNode = RuleSummary::BodyNode;

  struct Frame {
    const BodyNode* body;  // the caller's compiled body
    int32_t call;  // call position in it whose callee we are inside
  };

  // Resolves cur_ (which may sit on a parameter or a call) to a
  // terminal position, adjusting the frame stack.
  void ResolveDown();

  // 1-based index of the current derived node under its derived
  // parent; 0 at the derived root. Does not move the cursor.
  int DerivedChildIndex() const;

  const Grammar* g_;
  std::shared_ptr<const RuleSummary> summary_;
  // Stack of enclosing call sites; the current place is position cur_
  // of the compiled body body_.
  std::vector<Frame> stack_;
  const BodyNode* body_ = nullptr;
  int32_t cur_ = 0;
  int depth_ = 0;
};

}  // namespace slg

#endif  // SLG_CORE_CURSOR_H_
