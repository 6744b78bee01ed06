#ifndef JIM_UTIL_HASH_H_
#define JIM_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace jim::util {

/// Mixes `value`'s hash into `seed` (boost::hash_combine recipe, 64-bit).
template <typename T>
void HashCombine(size_t& seed, const T& value) {
  seed ^= std::hash<T>{}(value) + 0x9e3779b97f4a7c15ull + (seed << 12) +
          (seed >> 4);
}

inline constexpr uint64_t kFnv1a64OffsetBasis = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnv1a64Prime = 0x100000001b3ull;

/// FNV-1a over a range of integral values, one 32-bit word per element.
/// The recipe behind Partition's fingerprint; `seed` lets callers fold extra
/// context (e.g. length) in.
template <typename It>
uint64_t Fnv1a64(It first, It last, uint64_t seed = kFnv1a64OffsetBasis) {
  uint64_t h = seed;
  for (; first != last; ++first) {
    h = (h ^ static_cast<uint64_t>(static_cast<uint32_t>(*first))) *
        kFnv1a64Prime;
  }
  return h;
}

}  // namespace jim::util

#endif  // JIM_UTIL_HASH_H_
