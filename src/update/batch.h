// Batched update engine (paper §V-C macro loop, amortized).
//
// Path isolation needs every rule's parameter-segment sizes (paper
// §III-A) and the derived size of every start-rule node. Applying a
// workload through a BatchUpdater computes them once per batch instead
// of once per operation, and garbage-collects once instead of after
// every delete:
//
//  * one RuleSummary (grammar/rule_summary.h), built lazily on the
//    first operation and kept for the whole batch — the rule set never
//    changes between operations (isolation only inlines into the start
//    rule's interior; garbage collection is deferred), and the summary
//    is only read for the other rules. Labels interned mid-batch
//    (rename targets, insert fragments) are terminals, which
//    Grammar::HasRule tells apart without the summary;
//  * the derived-subtree-size table of the start rule, seeded from the
//    summary's compiled start body, is maintained
//    incrementally: an edit recomputes the sizes of the fresh nodes it
//    introduces plus the root-to-edit-point spine, O(depth) instead of
//    O(|rhs|) per operation;
//  * CollectGarbageRules runs once, in Finish(), instead of per
//    delete.
//
// The sequence of tree edits is identical to applying the operations
// one at a time — only summary reuse and garbage-collection timing
// are amortized — so the resulting grammar derives the same document
// (tests assert the grammars are in fact identical).

#ifndef SLG_UPDATE_BATCH_H_
#define SLG_UPDATE_BATCH_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "src/api/options.h"
#include "src/common/status.h"
#include "src/core/grammar_repair.h"
#include "src/grammar/grammar.h"
#include "src/grammar/rule_summary.h"
#include "src/workload/update_workload.h"
#include "src/xml/xml_tree.h"

namespace slg {

class BatchUpdater {
 public:
  // Borrows g for the lifetime of the batch. Between the first
  // operation and Finish(), the grammar must not be mutated except
  // through this updater.
  explicit BatchUpdater(Grammar* g) : g_(g) {}

  // Same semantics (and same edit sequence on the start rule) as
  // RenameNode / InsertTreeBefore / DeleteSubtree in update_ops.h,
  // minus the per-operation summary and garbage-collection costs.
  Status Rename(int64_t preorder, std::string_view new_label);
  Status InsertBefore(int64_t preorder, const Tree& fragment);
  Status Delete(int64_t preorder);

  // Dispatches a workload operation (insert, delete or rename).
  Status Apply(const UpdateOp& op);

  // Makes the node at `preorder` of val(G) terminally available in
  // the start rule and returns its NodeId there — path isolation
  // against the batch's summary. Also the batched counterpart of
  // ReadLabel-style inspection; the atomic operations in update_ops.cc
  // are thin one-op batches over this and the edit methods above.
  StatusOr<NodeId> Isolate(int64_t preorder);

  // Ends the batch: drops the summary and the size table and
  // garbage-collects rules stranded by deletes. Returns the number of
  // rules removed. The updater is reusable afterwards (a new summary is
  // built on the next operation). Damage accounting survives Finish() — a
  // checkpoint driver reads it after finishing and clears it with
  // ResetDamage().
  int Finish();

  // --- damage accounting (input to LocalizedGrammarRePair) --------------
  // The damage set, in first-damaged order: the start rule (every edit
  // path rewrites its interior) plus the usage frontier — each rule
  // whose body isolation inlined into the start rule. The frontier
  // matters for recompression quality: an inlined body sits duplicated
  // in the start rule, and only a repair that also sees the rule's own
  // occurrences can fold the copy back in (the cross digrams otherwise
  // never reach their true counts).
  const std::vector<LabelId>& DamagedRules() const { return damage_; }

  // Gross number of fresh nodes materialized in the start rule since
  // the last ResetDamage(): inlined rule bodies (isolation partially
  // decompresses) plus copied insert fragments. This measures how much
  // un-compressed material the batch has accumulated — the adaptive
  // recompression trigger compares it against the grammar size.
  int64_t EdgesAdded() const { return edges_added_; }

  void ResetDamage() {
    damage_.clear();
    damage_seen_.clear();
    edges_added_ = 0;
  }

 private:
  // Builds the summary and seeds the size table on the first operation.
  void EnsureSummary();
  // Bottom-up derived sizes for a freshly created subtree (inlined
  // rule body or copied insert fragment).
  void ComputeDerivedFresh(NodeId subtree_root);
  // Re-derives sizes along the spine from `from` to the root after an
  // edit below `from` changed subtree sizes.
  void RecomputeUpward(NodeId from);

  int64_t derived_of(NodeId v) const {
    return derived_[static_cast<size_t>(v)];
  }
  // Nodes a start-rule node derives itself: a call its callee's
  // material, a terminal one (the start rule holds no parameters).
  int64_t OwnSize(LabelId l) const {
    return g_->HasRule(l) ? summary_->MaterialSize(l) : 1;
  }

  void NoteDamage(LabelId rule);

  Grammar* g_;
  std::optional<RuleSummary> summary_;  // between the first op and Finish
  std::vector<int64_t> derived_;  // by NodeId of the start rule's rhs
  std::vector<LabelId> damage_;
  std::unordered_set<LabelId> damage_seen_;
  int64_t edges_added_ = 0;
};

// What one applied batch did to its grammar: the damage set that seeds
// the next localized repair, and the gross edges and op count the
// merge trigger weighs.
struct BatchEffect {
  std::vector<LabelId> damage;
  int64_t edges_added = 0;
  int64_t ops = 0;
};

// Encodes a parsed XML fragment for an insert into g, interning its
// element names into g's label table as rank-2 terminals — the one
// fragment encoding of every insert surface. InvalidArgument, before
// anything is interned, when an element name is already a label of g
// other than a rank-2 terminal: a nonterminal, a parameter, ⊥, or a
// label of another rank.
StatusOr<Tree> EncodeFragment(const XmlTree& xml, Grammar* g);

// Applies `ops` as one batch (one BatchUpdater, finished). On error
// *g may be half-updated: callers that need atomicity apply to a
// clone and drop it.
StatusOr<BatchEffect> ApplyOps(Grammar* g, const std::vector<UpdateOp>& ops);

// The merge step of every serving surface: LocalizedGrammarRePair
// seeded with `damage` when options.localized (and there is damage),
// the full GrammarRePair otherwise.
GrammarRepairResult RecompressDamaged(Grammar g,
                                      const std::vector<LabelId>& damage,
                                      const UpdateOptions& options);

struct BatchApplyOptions {
  // Recompress at checkpoints (and once at the end of the workload).
  bool recompress = true;
  // Checkpoints run LocalizedGrammarRePair seeded from the batch's
  // damage set instead of re-indexing the whole grammar. The result
  // validates and derives the same document but need not be
  // byte-identical to a full repair (see LocalizedGrammarRePair).
  bool localized = true;
  // Adaptive checkpoint trigger: recompress mid-workload whenever the
  // gross edges the batch added since the last repair (isolation
  // inlining + insert fragments, BatchUpdater::EdgesAdded) exceed this
  // fraction of the grammar's edge count at that repair. Cheap periods
  // — ops that isolate shallow paths and add little — accumulate for
  // free; heavy damage recompresses promptly, independent of op count.
  // <= 0 disables intermediate checkpoints: one recompression at the
  // end of the workload (the previous fixed behavior).
  double growth_trigger = 0.0;
  // Floor between adaptive checkpoints: even when the growth trigger
  // is exceeded, at least this many operations must have been applied
  // since the last repair. On strongly-compressing documents a single
  // isolation can add more material than the whole (logarithmic)
  // grammar holds, so a bare fraction trigger would recompress every
  // other op — each mini-repair then mints a few churn rules the next
  // one has to chew through, which is both slower and larger than
  // letting damage accumulate a little.
  int min_checkpoint_ops = 64;
  GrammarRepairOptions repair;
};

struct BatchResult {
  Grammar grammar;
  int rules_collected = 0;
  int repair_rounds = 0;
  // Number of operations applied before each checkpoint recompression
  // fired (the final end-of-workload recompression included). A pure
  // function of (grammar, ops, options) — the determinism tests replay
  // a workload and assert the schedule is identical.
  std::vector<int> checkpoint_schedule;
};

// Applies every operation of `ops` through one BatchUpdater,
// garbage-collecting once per checkpoint and recompressing per
// `options` (adaptively if growth_trigger > 0, localized by default).
// Fails on the first inapplicable operation.
StatusOr<BatchResult> ApplyWorkloadBatched(Grammar g,
                                           const std::vector<UpdateOp>& ops,
                                           const BatchApplyOptions& options = {});

}  // namespace slg

#endif  // SLG_UPDATE_BATCH_H_
