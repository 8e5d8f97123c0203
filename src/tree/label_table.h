// Interned ranked alphabet shared by trees and grammars.
//
// Every node label in the library is a small integer LabelId into a
// LabelTable. The table stores, per label, its spelling and its rank
// (number of children every node with this label must have).
//
// Three special families of labels exist:
//  * kNullLabel (id 0, spelled "~", rank 0): the ⊥ "empty node" of the
//    paper's binary XML encoding (non-existing first-child/next-sibling).
//  * parameters y1..ym (spelled "$1", "$2", ...): formal parameters of
//    grammar rules, rank 0, identified by param_index() >= 1.
//  * everything else: ordinary ranked symbols. Whether such a symbol is
//    a terminal or a nonterminal is a property of a Grammar (a label is
//    a nonterminal iff the grammar has a rule for it), not of the table.
//
// Copies share the spellings and the name index until one side interns
// a label, so copying a table (every Grammar::Clone does, once per
// service write) copies only the flat rank arrays. A copy may be read
// on any thread while the table it was copied from keeps interning.

#ifndef SLG_TREE_LABEL_TABLE_H_
#define SLG_TREE_LABEL_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/check.h"

namespace slg {

using LabelId = int32_t;

inline constexpr LabelId kNoLabel = -1;
inline constexpr LabelId kNullLabel = 0;  // The ⊥ empty-node label.

class LabelTable {
 public:
  LabelTable();

  LabelTable(const LabelTable& o);
  LabelTable& operator=(const LabelTable& o);
  LabelTable(LabelTable&&) = default;
  LabelTable& operator=(LabelTable&&) = default;

  // Interns `name` with the given rank. If the name already exists its
  // rank must match (checked).
  LabelId Intern(std::string_view name, int rank);

  // Returns the id for `name`, or kNoLabel if not interned.
  LabelId Find(std::string_view name) const;

  // Returns the parameter label y<index> (index >= 1), interning it on
  // first use. Spelled "$<index>".
  LabelId Param(int index);

  // Creates a fresh label with a unique generated name ("<prefix>0",
  // "<prefix>1", ... skipping collisions) and the given rank. Used for
  // digram nonterminals and exported fragment rules.
  LabelId Fresh(std::string_view prefix, int rank);

  const std::string& Name(LabelId id) const {
    return names_->names[Index(id)];
  }
  int Rank(LabelId id) const { return rank_[Index(id)]; }

  // 1-based parameter index, or 0 if `id` is not a parameter.
  int ParamIndex(LabelId id) const { return param_index_[Index(id)]; }
  bool IsParam(LabelId id) const { return ParamIndex(id) > 0; }

  int size() const { return static_cast<int>(rank_.size()); }

  // State of the Fresh() name generator. Serialized with the grammar
  // image: fresh-name generation is history-dependent (the counter is
  // shared across prefixes and skips collisions), so round-tripping a
  // grammar must restore it — otherwise a recompression after
  // deserialize mints different rule names than the live grammar
  // would, and the durable store's recovered-bytes-identical guarantee
  // breaks.
  int fresh_counter() const { return fresh_counter_; }
  void set_fresh_counter(int counter) { fresh_counter_ = counter; }

 private:
  // Spellings by id and the name index. Once a second table refers to
  // a block, `shared` is set and the block is never written again:
  // the next Add on either table copies it first. The flag is atomic
  // because several threads may copy one const table at once (the
  // writer and the merge thread both clone the served grammar).
  struct Names {
    std::vector<std::string> names;
    std::unordered_map<std::string, LabelId> by_name;
    std::atomic<bool> shared{false};

    Names() = default;
    Names(const Names& o) : names(o.names), by_name(o.by_name) {}
  };

  size_t Index(LabelId id) const {
    SLG_DCHECK(id >= 0 && id < static_cast<LabelId>(rank_.size()));
    return static_cast<size_t>(id);
  }

  // Appends a label that Find does not know; returns its id.
  LabelId Add(std::string name, int rank, int param_index);

  // Null only in a moved-from table.
  std::shared_ptr<Names> names_;
  std::vector<int32_t> rank_;
  std::vector<int32_t> param_index_;  // 1-based; 0 means not a parameter.
  std::vector<LabelId> params_;       // params_[i] = label of y_{i+1}.
  int fresh_counter_ = 0;
};

}  // namespace slg

#endif  // SLG_TREE_LABEL_TABLE_H_
