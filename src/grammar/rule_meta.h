// RuleMeta — an empty tag type with a Build that does no work.
//
// The per-rule record is RuleSummary (rule_summary.h). This header
// stays for one caller: the end-to-end benchmark's write replay
// (e2ebench/e2e_bench.cc) times a "grammar.rule_meta" leg around
// RuleMeta::Build and passes its result to RuleSummary::Build. Build
// returns at once, so that leg measures about zero.

#ifndef SLG_GRAMMAR_RULE_META_H_
#define SLG_GRAMMAR_RULE_META_H_

namespace slg {

class Grammar;

struct RuleMeta {
  static RuleMeta Build(const Grammar&, bool /*with_sizes*/) { return {}; }
};

}  // namespace slg

#endif  // SLG_GRAMMAR_RULE_META_H_
