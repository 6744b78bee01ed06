#include "lattice/pair_mask.h"

#include <vector>

namespace jim::lat {

namespace {

/// Smallest i < j co-block with j in the partition over `n` elements whose
/// pair mask is `mask`; j itself when j is the first element of its block.
size_t FirstCoBlock(const uint64_t* mask, size_t n, size_t j) {
  for (size_t i = 0; i < j; ++i) {
    // Row-major: row i starts at bit i(2n − i − 1)/2 and holds j > i.
    const size_t bit = i * (2 * n - i - 1) / 2 + (j - i - 1);
    if ((mask[bit >> 6] >> (bit & 63)) & 1) return i;
  }
  return j;
}

}  // namespace

void FillPairMask(const Partition& p, uint64_t* mask) {
  const std::vector<int>& labels = p.labels();
  const size_t n = p.num_elements();
  size_t bit = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j, ++bit) {
      if (labels[i] == labels[j]) mask[bit >> 6] |= uint64_t{1} << (bit & 63);
    }
  }
}

Partition PairMaskToPartition(const uint64_t* mask, size_t n) {
  std::vector<int> labels(n);
  int next = 0;
  for (size_t j = 0; j < n; ++j) {
    const size_t first = FirstCoBlock(mask, n, j);
    labels[j] = first < j ? labels[first] : next++;
  }
  return Partition::FromLabels(labels);
}

size_t MaskRank(const uint64_t* mask, size_t words, size_t n) {
  // rank is the number of elements that are not the last of their block,
  // i.e. whose row of pairs (i, j > i) holds a set bit. Walk the set bits
  // in order (rows are consecutive bit ranges), counting the distinct rows
  // they fall in.
  size_t rank = 0;
  size_t row = 0;
  size_t row_end = n - 1;  // one past the last bit of row `row`
  size_t counted_row = n;  // no row counted yet
  for (size_t w = 0; w < words; ++w) {
    for (uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
      const size_t bit = w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
      while (bit >= row_end) row_end += n - 1 - ++row;
      rank += row != counted_row;
      counted_row = row;
    }
  }
  return rank;
}

}  // namespace jim::lat
