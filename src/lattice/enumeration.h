#ifndef JIM_LATTICE_ENUMERATION_H_
#define JIM_LATTICE_ENUMERATION_H_

#include <cstdint>
#include <functional>

#include "lattice/partition.h"

namespace jim::lat {

/// Bell number B(n): the number of partitions of an n-element set.
/// Exact for n <= 25 (B(25) = 4,638,590,332,229,999,353 fits in uint64).
/// JIM_CHECK-fails beyond that.
uint64_t BellNumber(size_t n);

/// Visits every partition of {0..n-1} in restricted-growth-string order.
/// The visitor returns false to stop early; VisitAllPartitions returns false
/// iff it was stopped. Exponential (B(n) partitions) — the engine never calls
/// this on real instances; it exists for workload generators and the
/// brute-force oracles of the tests.
bool VisitAllPartitions(size_t n,
                        const std::function<bool(const Partition&)>& visitor);

}  // namespace jim::lat

#endif  // JIM_LATTICE_ENUMERATION_H_
