#include "util/rng.h"

#include <algorithm>
#include <cmath>

namespace jim::util {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) {
    word = SplitMix64(s);
  }
  // xoshiro must not start from the all-zero state.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) {
    state_[0] = 1;
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  JIM_CHECK_LE(lo, hi);
  const uint64_t range = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (range == 0) {
    // Full 64-bit range requested.
    return static_cast<int64_t>(Next());
  }
  // Rejection sampling to avoid modulo bias.
  const uint64_t all = ~uint64_t{0};
  const uint64_t limit = all - all % range;
  uint64_t draw;
  do {
    draw = Next();
  } while (draw >= limit);
  return lo + static_cast<int64_t>(draw % range);
}

double Rng::UniformDouble() {
  // 53 high-quality bits into [0,1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  p = std::clamp(p, 0.0, 1.0);
  return UniformDouble() < p;
}

std::vector<size_t> Rng::SampleIndices(size_t n, size_t k) {
  std::vector<size_t> picked;
  if (k >= n) {
    picked.resize(n);
    for (size_t i = 0; i < n; ++i) picked[i] = i;
    return picked;
  }
  // Floyd's algorithm: k draws, no rejection loops.
  std::vector<size_t> chosen;
  chosen.reserve(k);
  for (size_t j = n - k; j < n; ++j) {
    size_t t = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(j)));
    if (std::find(chosen.begin(), chosen.end(), t) != chosen.end()) {
      chosen.push_back(j);
    } else {
      chosen.push_back(t);
    }
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

}  // namespace jim::util
