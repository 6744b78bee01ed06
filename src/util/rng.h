#ifndef JIM_UTIL_RNG_H_
#define JIM_UTIL_RNG_H_

#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace jim::util {

/// Deterministic, seedable pseudo-random number generator (xoshiro256**).
///
/// Every randomized component in JIM (random strategy, workload generators,
/// noisy crowd workers) takes an explicit `Rng`, so entire experiments are
/// reproducible from a single seed. The methods below stand in for <random>
/// distributions because their results are identical across standard
/// library implementations.
class Rng {
 public:
  /// Seeds the state with splitmix64 applied to `seed`, per the xoshiro
  /// authors' recommendation. Distinct seeds give decorrelated streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Next 64 uniformly random bits.
  uint64_t Next();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform in [0, 1).
  double UniformDouble();

  /// True with probability `p` (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Picks one element uniformly. Requires a non-empty vector.
  template <typename T>
  const T& PickOne(const std::vector<T>& items) {
    JIM_CHECK(!items.empty());
    return items[static_cast<size_t>(
        UniformInt(0, static_cast<int64_t>(items.size()) - 1))];
  }

  /// Samples `k` distinct indices from [0, n) (reservoir sampling); if
  /// k >= n returns all of [0, n). Result is in increasing order.
  std::vector<size_t> SampleIndices(size_t n, size_t k);

 private:
  uint64_t state_[4];
};

}  // namespace jim::util

#endif  // JIM_UTIL_RNG_H_
