// Shared test corpus: exponentially compressing grammars.

#ifndef SLG_TESTS_EXPONENTIAL_GRAMMARS_H_
#define SLG_TESTS_EXPONENTIAL_GRAMMARS_H_

#include <string>
#include <vector>

#include "src/grammar/grammar.h"
#include "src/grammar/text_format.h"

namespace slg {

// S -> f(A1,A1), Ai -> f(Ai+1,Ai+1), An -> a: val is the complete
// binary tree with 2^(n+1)-1 nodes but only n+2 distinct subtrees.
inline Grammar DoublingGrammar(int levels) {
  std::vector<std::string> rules = {"S -> f(A1,A1)"};
  for (int i = 1; i < levels; ++i) {
    rules.push_back("A" + std::to_string(i) + " -> f(A" + std::to_string(i + 1) +
                    ",A" + std::to_string(i + 1) + ")");
  }
  rules.push_back("A" + std::to_string(levels) + " -> a");
  return GrammarFromRules(rules).take();
}

// Rules with parameters in non-trivial positions — the same rule
// instantiated with swapped arguments, so any per-rule computation
// must flow actual-argument values through the parameter intervals.
inline Grammar ParameterizedSiblingGrammar() {
  return GrammarFromRules({
             "S -> f(A(a,b),A(b,a))",
             "A -> g($1,h($2,c))",
         }).take();
}

// Exponential derived size from a logarithmic grammar: a 2^levels-deep
// unary chain through shared parameterized rules, wrapped as a valid
// top-level binary-encoding pair.
inline Grammar ParameterizedChainGrammar(int levels = 8) {
  std::vector<std::string> rules = {"S -> r(A1(e),~)"};
  for (int i = 1; i < levels; ++i) {
    rules.push_back("A" + std::to_string(i) + " -> A" + std::to_string(i + 1) +
                    "(A" + std::to_string(i + 1) + "($1))");
  }
  rules.push_back("A" + std::to_string(levels) + " -> a($1)");
  return GrammarFromRules(rules).take();
}

// A start body nesting k calls of one rank-1 rule inside each other's
// arguments: S -> r(A(A(...A(~)...)),~), A -> a($1,~). The derived
// document is the chain r/a/a/.../a of depth k+1, and the path
// /r/a/.../a reaches every nesting level under a context of its own,
// known only once the level above it has been evaluated.
inline Grammar NestedCallGrammar(int k) {
  std::string body = "~";
  for (int i = 0; i < k; ++i) body = "A(" + body + ")";
  return GrammarFromRules({"S -> r(" + body + ",~)", "A -> a($1,~)"}).take();
}

}  // namespace slg

#endif  // SLG_TESTS_EXPONENTIAL_GRAMMARS_H_
