#ifndef JIM_TESTS_SUPPORT_REFERENCE_CLASSES_H_
#define JIM_TESTS_SUPPORT_REFERENCE_CLASSES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/tuple_store.h"
#include "lattice/partition.h"

namespace jim::core {

/// The class table an engine must build over a store, derived without the
/// engine's code kernel and without the store's factorization: Part(t) is
/// TuplePartition over the decoded Values of every tuple, and classes are
/// keyed by partition in first-occurrence order.
struct ReferenceClasses {
  std::vector<lat::Partition> partitions;           ///< by class id
  std::vector<size_t> class_of_tuple;               ///< by tuple
  std::vector<std::vector<uint32_t>> members;       ///< by class, ascending
};

/// O(N · n²) decodes and compares over every tuple of `store`.
ReferenceClasses BuildReferenceClasses(const TupleStore& store);

/// "" when `engine`'s class table is `reference` — the class count, each
/// class's Part(c), first tuple and size, and class_of_tuple(t) for every
/// tuple — else a description of the first difference.
std::string DiffFromReference(const InferenceEngine& engine,
                              const ReferenceClasses& reference);

}  // namespace jim::core

#endif  // JIM_TESTS_SUPPORT_REFERENCE_CLASSES_H_
