#include "src/update/batch.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/grammar/inliner.h"
#include "src/grammar/rule_summary.h"
#include "src/grammar/stats.h"
#include "src/grammar/value.h"
#include "src/update/update_ops.h"
#include "src/xml/binary_encoding.h"

namespace slg {

void BatchUpdater::EnsureSnapshot() {
  if (!have_snapshot_) {
    meta_ = RuleMeta::Build(*g_, /*with_sizes=*/true);
    derived_ = ComputeStaticSizes(g_->rhs(g_->start()), meta_);
    have_snapshot_ = true;
  } else if (meta_.num_labels() < g_->labels().size()) {
    meta_.ExtendForNewLabels(*g_);
  }
}

void BatchUpdater::NoteDamage(LabelId rule) {
  if (damage_seen_.insert(rule).second) damage_.push_back(rule);
}

void BatchUpdater::ComputeDerivedFresh(NodeId subtree_root) {
  Tree& t = g_->rhs(g_->start());
  std::vector<NodeId> fresh = t.Preorder(subtree_root);
  // Fresh material in the start rule: an inlined rule body (isolation
  // partially decompresses) or a copied insert fragment.
  edges_added_ += static_cast<int64_t>(fresh.size());
  NoteDamage(g_->start());
  NodeId max_id = static_cast<NodeId>(derived_.size()) - 1;
  for (NodeId f : fresh) max_id = std::max(max_id, f);
  derived_.resize(static_cast<size_t>(max_id) + 1, 0);
  for (auto it = fresh.rbegin(); it != fresh.rend(); ++it) {
    NodeId u = *it;
    int64_t n = meta_.SegTotal(t.label(u));
    for (NodeId c = t.first_child(u); c != kNilNode; c = t.next_sibling(c)) {
      n = SizeSatAdd(n, derived_of(c));
    }
    derived_[static_cast<size_t>(u)] = n;
  }
}

void BatchUpdater::RecomputeUpward(NodeId from) {
  Tree& t = g_->rhs(g_->start());
  for (NodeId p = from; p != kNilNode; p = t.parent(p)) {
    int64_t n = meta_.SegTotal(t.label(p));
    for (NodeId c = t.first_child(p); c != kNilNode; c = t.next_sibling(c)) {
      n = SizeSatAdd(n, derived_of(c));
    }
    derived_[static_cast<size_t>(p)] = n;
  }
}

StatusOr<NodeId> BatchUpdater::Isolate(int64_t preorder) {
  if (preorder < 1) {
    return Status::OutOfRange("preorder positions are 1-based");
  }
  EnsureSnapshot();
  Tree& t = g_->rhs(g_->start());
  if (preorder > derived_of(t.root())) {
    return Status::OutOfRange("preorder position " + std::to_string(preorder) +
                              " beyond val(G) size " +
                              std::to_string(derived_of(t.root())));
  }

  // Path isolation (paper §III-A) against the batch-shared snapshot
  // and size table: inline only the calls on the root-to-target spine.
  NodeId v = t.root();
  int64_t k = preorder;  // target is the k-th node of v's derived subtree
  for (;;) {
    LabelId l = t.label(v);
    SLG_CHECK(meta_.ParamIndex(l) == 0);
    if (!meta_.IsNonterminal(l)) {
      if (k == 1) return v;
      k -= 1;
      NodeId c = t.first_child(v);
      for (; c != kNilNode; c = t.next_sibling(c)) {
        int64_t n = derived_of(c);
        if (k <= n) break;
        k -= n;
      }
      SLG_CHECK(c != kNilNode);
      v = c;
      continue;
    }
    int rank = meta_.Rank(l);
    int64_t k2 = k;
    NodeId arg = t.first_child(v);
    NodeId descend = kNilNode;
    for (int i = 0; i < rank && arg != kNilNode;
         ++i, arg = t.next_sibling(arg)) {
      int64_t body_seg = meta_.SegSize(l, i);
      if (k2 <= body_seg) break;  // inside the body: inline
      k2 -= body_seg;
      int64_t n = derived_of(arg);
      if (k2 <= n) {
        descend = arg;
        break;
      }
      k2 -= n;
    }
    if (descend != kNilNode) {
      v = arg;
      k = k2;
      continue;
    }
    NodeId copy_root = InlineCall(*g_, &t, v, g_->rhs(l));
    // The inlined rule joins the damage set (its usage frontier): its
    // body now sits duplicated in the start rule, so the localized
    // repair must see its occurrences to fold the copy back in.
    NoteDamage(l);
    ComputeDerivedFresh(copy_root);
    v = copy_root;
  }
}

namespace {

// Ok when `name` may label an element of g's document: it is new to
// g's label table or a rank-2 terminal there. Element names share the
// table with ⊥, the parameters and the repair's fresh nonterminal
// names ("X2"), so a tag spelled like a rule would otherwise turn the
// element into a call to that rule — or, at a rank other than 2,
// trip the table's re-intern check.
Status CheckElementName(const Grammar& g, std::string_view name) {
  const LabelTable& labels = g.labels();
  LabelId l = labels.Find(name);
  if (l == kNoLabel) return Status::Ok();
  if (l == kNullLabel) {
    return Status::InvalidArgument("element name '" + std::string(name) +
                                   "' is the empty node ⊥");
  }
  if (g.HasRule(l) || labels.IsParam(l)) {
    return Status::InvalidArgument(
        "element name '" + std::string(name) +
        "' is a nonterminal or parameter of the grammar");
  }
  if (labels.Rank(l) != 2) {
    return Status::InvalidArgument("element name '" + std::string(name) +
                                   "' exists with a rank other than 2");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<Tree> EncodeFragment(const XmlTree& xml, Grammar* g) {
  for (XmlNodeId v = 0; v < xml.NodeCount(); ++v) {
    SLG_RETURN_IF_ERROR(CheckElementName(*g, xml.Tag(v)));
  }
  return EncodeBinary(xml, &g->labels());
}

Status BatchUpdater::Rename(int64_t preorder, std::string_view new_label) {
  StatusOr<NodeId> u = Isolate(preorder);
  if (!u.ok()) return u.status();
  Tree& t = g_->rhs(g_->start());
  if (t.label(u.value()) == kNullLabel) {
    return Status::InvalidArgument("rename target is the empty node ⊥");
  }
  SLG_RETURN_IF_ERROR(CheckElementName(*g_, new_label));
  LabelId existing = g_->labels().Find(new_label);
  LabelId nl =
      existing != kNoLabel ? existing : g_->labels().Intern(new_label, 2);
  meta_.ExtendForNewLabels(*g_);
  // Old and new labels are both rank-2 terminals (SegTotal 1): no
  // derived size changes.
  t.set_label(u.value(), nl);
  NoteDamage(g_->start());
  return Status::Ok();
}

Status BatchUpdater::InsertBefore(int64_t preorder, const Tree& s) {
  if (s.empty()) return Status::InvalidArgument("empty insert fragment");
  // Fragment labels are caller-supplied too. Check them before
  // anything is isolated: sizing the copy indexes the snapshot by
  // label, the journal codec writes each node's table rank, so a node
  // whose child count disagrees with it would not replay, and a node
  // labeled by a nonterminal or parameter would turn into a call or a
  // dangling parameter of the start rule.
  const LabelTable& labels = g_->labels();
  Status bad = Status::Ok();
  s.VisitPreorder(s.root(), [&](NodeId v) {
    LabelId l = s.label(v);
    if (!bad.ok()) return;
    if (l < 0 || l >= static_cast<LabelId>(labels.size())) {
      bad = Status::InvalidArgument(
          "insert fragment label id " + std::to_string(l) +
          " is not in the grammar's label table");
    } else if (g_->HasRule(l) || labels.IsParam(l)) {
      bad = Status::InvalidArgument(
          "insert fragment node '" + labels.Name(l) +
          "' is labeled by a nonterminal or parameter of the grammar");
    } else if (labels.Rank(l) != s.NumChildren(v)) {
      bad = Status::InvalidArgument(
          "insert fragment node '" + labels.Name(l) + "' has " +
          std::to_string(s.NumChildren(v)) + " children but rank " +
          std::to_string(labels.Rank(l)));
    }
  });
  if (!bad.ok()) return bad;
  StatusOr<NodeId> u_or = Isolate(preorder);
  if (!u_or.ok()) return u_or.status();
  NodeId u = u_or.value();
  Tree& t = g_->rhs(g_->start());

  NodeId copy = t.CopySubtreeFrom(s, s.root());
  NodeId hole = RightmostLeaf(t, copy);
  if (t.label(hole) != kNullLabel) {
    t.DetachAndFree(copy);
    return Status::InvalidArgument(
        "insert fragment's rightmost leaf is not ⊥");
  }
  // The fragment may carry labels interned after the snapshot.
  meta_.ExtendForNewLabels(*g_);
  // Sizes of the copy, with the ⊥ hole still in place; the splice
  // below is repaired by one upward pass.
  ComputeDerivedFresh(copy);

  if (t.label(u) == kNullLabel) {
    // Insert into an empty position: t[u/s].
    NodeId parent = t.parent(u);
    t.ReplaceWith(u, copy);
    t.FreeSubtree(u);
    RecomputeUpward(parent);
    NoteDamage(g_->start());
    return Status::Ok();
  }
  // t[u/s'] with s' = s[rightmost ⊥ / t_u].
  NodeId after = t.next_sibling(u);
  NodeId parent = t.parent(u);
  t.Detach(u);
  if (parent == kNilNode) {
    t.SetRoot(copy);
  } else if (after != kNilNode) {
    t.InsertBefore(after, copy);
  } else {
    t.AppendChild(parent, copy);
  }
  t.ReplaceWith(hole, u);
  t.FreeSubtree(hole);
  // u kept its derived size; everything above it (through the copy's
  // spine into the old ancestors) changed.
  RecomputeUpward(t.parent(u));
  NoteDamage(g_->start());
  return Status::Ok();
}

Status BatchUpdater::Delete(int64_t preorder) {
  StatusOr<NodeId> u_or = Isolate(preorder);
  if (!u_or.ok()) return u_or.status();
  NodeId u = u_or.value();
  Tree& t = g_->rhs(g_->start());
  if (t.label(u) == kNullLabel) {
    return Status::InvalidArgument("delete target is the empty node ⊥");
  }
  if (t.NumChildren(u) != 2) {
    return Status::FailedPrecondition(
        "delete target is not a binary element node");
  }
  NodeId next_sib = t.Child(u, 2);
  NodeId parent = t.parent(u);
  t.Detach(next_sib);
  t.ReplaceWith(u, next_sib);
  t.FreeSubtree(u);  // frees u and its first-child subtree
  RecomputeUpward(parent);
  NoteDamage(g_->start());
  // Rules stranded by the freed subtree are collected in Finish().
  return Status::Ok();
}

Status BatchUpdater::Apply(const UpdateOp& op) {
  switch (op.kind) {
    case UpdateOp::Kind::kInsert:
      return InsertBefore(op.preorder, op.fragment);
    case UpdateOp::Kind::kDelete:
      return Delete(op.preorder);
    case UpdateOp::Kind::kRename:
      // The label id is caller-supplied (workload generators, journal
      // replay): out-of-table ids are a user error, not an invariant
      // breach — reject, don't abort.
      if (op.label < 0 ||
          op.label >= static_cast<LabelId>(g_->labels().size())) {
        return Status::InvalidArgument(
            "rename op label id " + std::to_string(op.label) +
            " is not in the grammar's label table");
      }
      return Rename(op.preorder, g_->labels().Name(op.label));
  }
  return Status::InvalidArgument("unknown update kind");
}

int BatchUpdater::Finish() {
  // Drop the snapshot first: it borrows rhs trees that garbage
  // collection may remove.
  have_snapshot_ = false;
  meta_ = RuleMeta();
  derived_.clear();
  derived_.shrink_to_fit();
  return CollectGarbageRules(g_);
}

StatusOr<BatchEffect> ApplyOps(Grammar* g, const std::vector<UpdateOp>& ops) {
  BatchUpdater bu(g);
  for (const UpdateOp& op : ops) SLG_RETURN_IF_ERROR(bu.Apply(op));
  bu.Finish();
  return BatchEffect{bu.DamagedRules(), bu.EdgesAdded(),
                     static_cast<int64_t>(ops.size())};
}

GrammarRepairResult RecompressDamaged(Grammar g,
                                      const std::vector<LabelId>& damage,
                                      const UpdateOptions& options) {
  return options.localized && !damage.empty()
             ? LocalizedGrammarRePair(std::move(g), damage, options.repair)
             : GrammarRePair(std::move(g), options.repair);
}

StatusOr<BatchResult> ApplyWorkloadBatched(Grammar g,
                                           const std::vector<UpdateOp>& ops,
                                           const BatchApplyOptions& options) {
  BatchResult result;
  const bool adaptive = options.recompress && options.growth_trigger > 0;
  // The adaptive trigger compares gross batch growth against the
  // grammar size as of the last repair; refreshed at every checkpoint.
  int64_t base_edges = adaptive ? ComputeStats(g).edge_count : 0;
  BatchUpdater batch(&g);
  int done = 0;
  int last_checkpoint = 0;
  auto checkpoint = [&]() {
    result.rules_collected += batch.Finish();
    std::vector<LabelId> damage = batch.DamagedRules();
    batch.ResetDamage();
    GrammarRepairResult r =
        options.localized
            ? LocalizedGrammarRePair(std::move(g), damage, options.repair)
            : GrammarRePair(std::move(g), options.repair);
    result.repair_rounds += r.rounds;
    g = std::move(r.grammar);
    result.checkpoint_schedule.push_back(done);
    last_checkpoint = done;
  };
  for (const UpdateOp& op : ops) {
    Status st = batch.Apply(op);
    if (!st.ok()) return st;
    ++done;
    if (adaptive && done < static_cast<int>(ops.size()) &&
        done - last_checkpoint >= options.min_checkpoint_ops &&
        static_cast<double>(batch.EdgesAdded()) >
            options.growth_trigger * static_cast<double>(base_edges)) {
      checkpoint();
      base_edges = ComputeStats(g).edge_count;
    }
  }
  if (options.recompress) {
    checkpoint();
  } else {
    result.rules_collected += batch.Finish();
  }
  result.grammar = std::move(g);
  return result;
}

}  // namespace slg
