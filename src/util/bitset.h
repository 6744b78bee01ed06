#ifndef JIM_UTIL_BITSET_H_
#define JIM_UTIL_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace jim::util {

/// Fixed-size-at-construction bitset: the row set a join predicate selects
/// (JoinPredicate::SelectedRows), one bit per tuple.
class DynamicBitset {
 public:
  explicit DynamicBitset(size_t size, bool initial = false)
      : size_(size),
        words_((size + kBitsPerWord - 1) / kBitsPerWord,
               initial ? ~uint64_t{0} : 0) {
    ClearPadding();
  }

  bool Test(size_t pos) const {
    JIM_DCHECK(pos < size_);
    return (words_[pos / kBitsPerWord] >> (pos % kBitsPerWord)) & 1u;
  }

  void Set(size_t pos, bool value = true) {
    JIM_DCHECK(pos < size_);
    const uint64_t mask = uint64_t{1} << (pos % kBitsPerWord);
    if (value) {
      words_[pos / kBitsPerWord] |= mask;
    } else {
      words_[pos / kBitsPerWord] &= ~mask;
    }
  }

  /// Number of set bits.
  size_t Count() const {
    size_t total = 0;
    for (uint64_t w : words_) total += static_cast<size_t>(__builtin_popcountll(w));
    return total;
  }

  /// Index of the first set bit, or the bitset's size if none.
  size_t FindFirst() const { return FindNext(0); }

  /// Index of the first set bit at position >= from, or the size if none.
  size_t FindNext(size_t from) const {
    if (from >= size_) return size_;
    size_t word_index = from / kBitsPerWord;
    uint64_t word = words_[word_index] & (~uint64_t{0} << (from % kBitsPerWord));
    while (true) {
      if (word != 0) {
        return word_index * kBitsPerWord +
               static_cast<size_t>(__builtin_ctzll(word));
      }
      if (++word_index >= words_.size()) return size_;
      word = words_[word_index];
    }
  }

  friend bool operator==(const DynamicBitset& a, const DynamicBitset& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

  /// All set positions, ascending.
  std::vector<size_t> ToVector() const {
    std::vector<size_t> out;
    out.reserve(Count());
    for (size_t i = FindFirst(); i < size_; i = FindNext(i + 1)) {
      out.push_back(i);
    }
    return out;
  }

 private:
  static constexpr size_t kBitsPerWord = 64;

  // Bits past `size_` in the last word must stay zero so Count/== are exact.
  void ClearPadding() {
    const size_t used = size_ % kBitsPerWord;
    if (used != 0 && !words_.empty()) {
      words_.back() &= (uint64_t{1} << used) - 1;
    }
  }

  size_t size_;
  std::vector<uint64_t> words_;
};

}  // namespace jim::util

#endif  // JIM_UTIL_BITSET_H_
