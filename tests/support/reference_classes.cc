#include "support/reference_classes.h"

#include <map>
#include <utility>

#include "support/core_views.h"
#include "util/string_util.h"

namespace jim::core {

ReferenceClasses BuildReferenceClasses(const TupleStore& store) {
  ReferenceClasses reference;
  // Keyed by the canonical block labels, which determine the partition.
  std::map<std::vector<int>, size_t> ids;
  for (size_t t = 0; t < store.num_tuples(); ++t) {
    lat::Partition part = TuplePartition(store.DecodeTuple(t));
    const auto [it, inserted] =
        ids.emplace(part.labels(), reference.partitions.size());
    if (inserted) {
      reference.partitions.push_back(std::move(part));
      reference.members.emplace_back();
    }
    reference.class_of_tuple.push_back(it->second);
    reference.members[it->second].push_back(static_cast<uint32_t>(t));
  }
  return reference;
}

std::string DiffFromReference(const InferenceEngine& engine,
                              const ReferenceClasses& reference) {
  if (engine.num_classes() != reference.partitions.size()) {
    return util::StrFormat("%zu classes, expected %zu", engine.num_classes(),
                           reference.partitions.size());
  }
  for (size_t c = 0; c < engine.num_classes(); ++c) {
    if (!(engine.ClassPartition(c) == reference.partitions[c])) {
      return util::StrFormat("class %zu has Part(c) %s, expected %s", c,
                             engine.ClassPartition(c).ToString().c_str(),
                             reference.partitions[c].ToString().c_str());
    }
    const TupleClass& found = engine.tuple_class(c);
    if (found.tuple_indices[0] != reference.members[c].front() ||
        found.size() != reference.members[c].size()) {
      return util::StrFormat(
          "class %zu starts at tuple %u with %zu members, expected tuple %u "
          "with %zu",
          c, found.tuple_indices[0], found.size(),
          reference.members[c].front(), reference.members[c].size());
    }
  }
  for (size_t t = 0; t < reference.class_of_tuple.size(); ++t) {
    if (engine.class_of_tuple(t) != reference.class_of_tuple[t]) {
      return util::StrFormat("tuple %zu is in class %zu, expected %zu", t,
                             engine.class_of_tuple(t),
                             reference.class_of_tuple[t]);
    }
  }
  return "";
}

}  // namespace jim::core
