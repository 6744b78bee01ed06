#ifndef JIM_TESTS_SUPPORT_REFINEMENTS_H_
#define JIM_TESTS_SUPPORT_REFINEMENTS_H_

#include <cstdint>
#include <functional>

#include "core/inference_state.h"
#include "lattice/partition.h"

namespace jim::lat {

/// Visits every refinement q ≤ p (i.e. every sub-predicate of p). The number
/// of refinements is ∏ B(|block|) over p's blocks — usually far smaller than
/// B(n). Visitor returns false to stop early; returns false iff stopped.
bool VisitRefinements(const Partition& p,
                      const std::function<bool(const Partition&)>& visitor);

/// Number of refinements of p: ∏ B(|block|).
uint64_t CountRefinements(const Partition& p);

}  // namespace jim::lat

namespace jim::core {

/// Exact number of predicates consistent with `state`: the refinements of
/// θ_P that IsConsistent accepts. Exponential; JIM_CHECK-fails if the
/// refinement count exceeds `limit`.
uint64_t CountConsistent(const InferenceState& state,
                         uint64_t limit = 1 << 22);

}  // namespace jim::core

#endif  // JIM_TESTS_SUPPORT_REFINEMENTS_H_
