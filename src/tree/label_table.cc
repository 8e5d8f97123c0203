#include "src/tree/label_table.h"

#include <string>
#include <utility>

namespace slg {

LabelTable::LabelTable() : names_(std::make_shared<Names>()) {
  // Reserve id 0 for the ⊥ empty-node label.
  LabelId null_id = Intern("~", 0);
  SLG_CHECK(null_id == kNullLabel);
}

LabelTable::LabelTable(const LabelTable& o)
    : names_(o.names_),
      rank_(o.rank_),
      param_index_(o.param_index_),
      params_(o.params_),
      fresh_counter_(o.fresh_counter_) {
  if (names_ != nullptr) names_->shared = true;
}

LabelTable& LabelTable::operator=(const LabelTable& o) {
  if (this != &o) *this = LabelTable(o);
  return *this;
}

LabelId LabelTable::Add(std::string name, int rank, int param_index) {
  if (names_ == nullptr) {
    names_ = std::make_shared<Names>();
  } else if (names_->shared) {
    names_ = std::make_shared<Names>(*names_);
  }
  LabelId id = static_cast<LabelId>(rank_.size());
  names_->by_name.emplace(name, id);
  names_->names.push_back(std::move(name));
  rank_.push_back(rank);
  param_index_.push_back(param_index);
  return id;
}

LabelId LabelTable::Intern(std::string_view name, int rank) {
  LabelId id = Find(name);
  if (id != kNoLabel) {
    SLG_CHECK_MSG(Rank(id) == rank, "label re-interned with different rank");
    return id;
  }
  return Add(std::string(name), rank, 0);
}

LabelId LabelTable::Find(std::string_view name) const {
  if (names_ == nullptr) return kNoLabel;
  auto it = names_->by_name.find(std::string(name));
  return it == names_->by_name.end() ? kNoLabel : it->second;
}

LabelId LabelTable::Param(int index) {
  SLG_CHECK(index >= 1);
  while (static_cast<int>(params_.size()) < index) {
    int next = static_cast<int>(params_.size()) + 1;
    std::string name = "$" + std::to_string(next);
    SLG_CHECK_MSG(Find(name) == kNoLabel,
                  "parameter name already taken by a non-parameter label");
    params_.push_back(Add(std::move(name), 0, next));
  }
  return params_[static_cast<size_t>(index - 1)];
}

LabelId LabelTable::Fresh(std::string_view prefix, int rank) {
  for (;;) {
    std::string name =
        std::string(prefix) + std::to_string(fresh_counter_++);
    if (Find(name) == kNoLabel) return Add(std::move(name), rank, 0);
  }
}

}  // namespace slg
