#ifndef JIM_LATTICE_PAIR_MASK_H_
#define JIM_LATTICE_PAIR_MASK_H_

#include <cstddef>
#include <cstdint>

#include "lattice/partition.h"

namespace jim::lat {

/// Pair masks: the word-level form of a partition that the inference path
/// computes with. A partition over n elements is exactly its set of co-block
/// pairs (i, j), i < j, stored as a bitset of n(n−1)/2 bits in
/// PairMaskWords(n) words, pairs numbered in row-major order (0,1), (0,2), …,
/// (1,2), …. Then
///   p ≤ q   ⇔  pairs(p) ⊆ pairs(q),
///   p ∧ q   has pairs(p) ∩ pairs(q)
/// (the intersection of two equivalence relations is one), so refinement and
/// meet are a few word operations. Not every bitset is a mask: only the
/// transitively closed ones encode a partition, and masks built by
/// FillPairMask and closed under AND always are.

/// Words in the pair mask of a partition over `n` elements.
inline size_t PairMaskWords(size_t n) {
  return n < 2 ? 0 : (n * (n - 1) / 2 + 63) / 64;
}

/// Sets the bit of every co-block pair of `p` in the zeroed mask at `mask`.
void FillPairMask(const Partition& p, uint64_t* mask);

/// The partition over `n` elements whose pair mask is `mask`.
Partition PairMaskToPartition(const uint64_t* mask, size_t n);

/// rank = n − #blocks of the partition over `n` elements with pair mask
/// `mask`, read off the mask without decoding it.
size_t MaskRank(const uint64_t* mask, size_t words, size_t n);

/// a ⊆ b: the partition of `a` refines the partition of `b`.
inline bool MaskSubset(const uint64_t* a, const uint64_t* b, size_t words) {
  for (size_t w = 0; w < words; ++w) {
    if ((a[w] & ~b[w]) != 0) return false;
  }
  return true;
}

/// a ∩ b ⊆ c: the meet of the partitions of `a` and `b` refines that of `c`.
inline bool MaskMeetSubset(const uint64_t* a, const uint64_t* b,
                           const uint64_t* c, size_t words) {
  for (size_t w = 0; w < words; ++w) {
    if ((a[w] & b[w] & ~c[w]) != 0) return false;
  }
  return true;
}

}  // namespace jim::lat

#endif  // JIM_LATTICE_PAIR_MASK_H_
