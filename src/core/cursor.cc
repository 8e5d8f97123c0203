#include "src/core/cursor.h"

#include <memory>
#include <utility>

namespace slg {

namespace {

using BodyNode = RuleSummary::BodyNode;

// Position of the i-th (1-based) child of position p; -1 when p has
// fewer than i children.
int32_t ChildPos(const BodyNode* b, int32_t p, int i) {
  int k = 1;
  for (int32_t c = p + 1; c < b[p].end; c = b[c].end, ++k) {
    if (k == i) return c;
  }
  return -1;
}

// 1-based index of position c under its parent.
int ChildIndex(const BodyNode* b, int32_t c) {
  int i = 1;
  for (int32_t s = b[c].parent + 1; s != c; s = b[s].end) ++i;
  return i;
}

}  // namespace

GrammarCursor::GrammarCursor(const Grammar* g)
    : GrammarCursor(g, std::make_shared<const RuleSummary>(
                           RuleSummary::Build(*g))) {}

GrammarCursor::GrammarCursor(const Grammar* g,
                             std::shared_ptr<const RuleSummary> summary)
    : g_(g), summary_(std::move(summary)) {
  ToRoot();
}

void GrammarCursor::ToRoot() {
  stack_.clear();
  body_ = summary_->Body(g_->start());
  cur_ = 0;
  depth_ = 0;
  ResolveDown();
}

void GrammarCursor::ResolveDown() {
  // A parameter y_j continues at the j-th argument of the call one
  // frame up, in the caller's body; a call pushes a frame and enters
  // the callee's body root, which derives the same node.
  for (;;) {
    const BodyNode& n = body_[cur_];
    if (n.kind > 0) {
      SLG_CHECK_MSG(!stack_.empty(), "parameter at derivation top");
      Frame f = stack_.back();
      stack_.pop_back();
      body_ = f.body;
      cur_ = ChildPos(f.body, f.call, n.kind);
    } else if (n.kind == RuleSummary::kCallKind) {
      stack_.push_back(Frame{body_, cur_});
      body_ = summary_->Body(n.label);
      cur_ = 0;
    } else {
      return;  // terminal
    }
  }
}

LabelId GrammarCursor::Label() const { return body_[cur_].label; }

const std::string& GrammarCursor::LabelName() const {
  return g_->labels().Name(Label());
}

int GrammarCursor::NumChildren() const { return g_->labels().Rank(Label()); }

bool GrammarCursor::Down(int i) {
  int32_t c = ChildPos(body_, cur_, i);
  if (c < 0) return false;
  cur_ = c;
  ++depth_;
  ResolveDown();
  return true;
}

int GrammarCursor::DerivedChildIndex() const {
  // Index of the current derived node under its derived parent (0 at
  // the derived root): walk the same boundaries Up() crosses, without
  // moving the cursor.
  const BodyNode* b = body_;
  int32_t c = cur_;
  size_t frames_left = stack_.size();
  std::vector<Frame> extra;  // frames pushed while crossing arguments
  for (;;) {
    int32_t p = b[c].parent;
    if (p < 0) {
      Frame f;
      if (!extra.empty()) {
        f = extra.back();
        extra.pop_back();
      } else if (frames_left > 0) {
        f = stack_[--frames_left];
      } else {
        return 0;  // derived root
      }
      b = f.body;
      c = f.call;
      continue;
    }
    if (b[p].kind == RuleSummary::kCallKind) {
      int j = ChildIndex(b, c);
      extra.push_back(Frame{b, p});
      const LabelId callee = b[p].label;
      b = summary_->Body(callee);
      c = summary_->ParamPos(callee, j);
      continue;
    }
    return ChildIndex(b, c);
  }
}

bool GrammarCursor::Up() {
  for (;;) {
    const BodyNode* b = body_;
    int32_t p = b[cur_].parent;
    if (p < 0) {
      // Root of a rule body: the derived parent is around the
      // instantiating call, one frame up.
      if (stack_.empty()) return false;  // derived root
      Frame f = stack_.back();
      stack_.pop_back();
      body_ = f.body;
      cur_ = f.call;
      continue;
    }
    if (b[p].kind == RuleSummary::kCallKind) {
      // Current node is the j-th argument of a call: the derived
      // parent is the parent of the j-th parameter inside the callee.
      int j = ChildIndex(b, cur_);
      stack_.push_back(Frame{body_, p});
      const LabelId callee = b[p].label;
      body_ = summary_->Body(callee);
      cur_ = summary_->ParamPos(callee, j);
      continue;
    }
    cur_ = p;
    --depth_;
    return true;
  }
}

bool GrammarCursor::Right() {
  // Fast path: when the in-rule parent is a terminal, the derived
  // siblings are exactly the body's siblings — one hop, no cursor
  // copy, no Up/Down round trip.
  const BodyNode* b = body_;
  int32_t p = b[cur_].parent;
  if (p >= 0 && b[p].kind != RuleSummary::kCallKind) {
    int32_t s = b[cur_].end;
    if (s >= b[p].end) return false;
    cur_ = s;
    ResolveDown();
    return true;
  }
  int index = DerivedChildIndex();
  if (index == 0) return false;
  GrammarCursor probe = *this;
  if (!Up()) return false;
  if (Down(index + 1)) return true;
  *this = probe;
  return false;
}

bool GrammarCursor::Left() {
  const BodyNode* b = body_;
  int32_t p = b[cur_].parent;
  if (p >= 0 && b[p].kind != RuleSummary::kCallKind) {
    if (cur_ == p + 1) return false;
    int32_t s = p + 1;
    while (b[s].end != cur_) s = b[s].end;
    cur_ = s;
    ResolveDown();
    return true;
  }
  int index = DerivedChildIndex();
  if (index <= 1) return false;
  GrammarCursor probe = *this;
  if (!Up()) return false;
  if (Down(index - 1)) return true;
  *this = probe;
  return false;
}

bool GrammarCursor::AtRoot() const { return depth_ == 0; }

bool GrammarCursor::FirstChildElement() {
  GrammarCursor probe = *this;
  if (!Down(1)) return false;
  if (IsNull()) {
    *this = probe;
    return false;
  }
  return true;
}

bool GrammarCursor::NextSiblingElement() {
  GrammarCursor probe = *this;
  if (!Down(2)) return false;
  if (IsNull()) {
    *this = probe;
    return false;
  }
  return true;
}

bool GrammarCursor::ParentElement() {
  // The XML parent is the first ancestor reached through a first-child
  // (index 1) edge; index-2 edges are next-sibling links.
  GrammarCursor probe = *this;
  for (;;) {
    int index = DerivedChildIndex();
    if (index == 0) {
      *this = probe;
      return false;  // document root has no parent element
    }
    bool ok = Up();
    SLG_CHECK(ok);
    if (index == 1) return true;
  }
}

}  // namespace slg
