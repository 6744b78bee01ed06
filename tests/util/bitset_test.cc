#include "util/bitset.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace jim::util {
namespace {

TEST(DynamicBitsetTest, StartsAllClear) {
  DynamicBitset bits(130);
  EXPECT_EQ(bits.Count(), 0u);
  EXPECT_EQ(bits.FindFirst(), 130u);  // no set bit: FindFirst is the size
}

TEST(DynamicBitsetTest, SetTestReset) {
  DynamicBitset bits(100);
  bits.Set(0);
  bits.Set(63);
  bits.Set(64);
  bits.Set(99);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(63));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_TRUE(bits.Test(99));
  EXPECT_FALSE(bits.Test(1));
  EXPECT_EQ(bits.Count(), 4u);
  bits.Set(63, false);
  EXPECT_FALSE(bits.Test(63));
  EXPECT_EQ(bits.Count(), 3u);
}

TEST(DynamicBitsetTest, SetAllRespectsSize) {
  DynamicBitset bits(70, /*initial=*/true);
  EXPECT_EQ(bits.Count(), 70u);
  for (size_t i = 0; i < 70; ++i) bits.Set(i, false);
  EXPECT_EQ(bits.Count(), 0u);
}

TEST(DynamicBitsetTest, FindFirstAndNext) {
  DynamicBitset bits(200);
  EXPECT_EQ(bits.FindFirst(), 200u);
  bits.Set(5);
  bits.Set(64);
  bits.Set(199);
  EXPECT_EQ(bits.FindFirst(), 5u);
  EXPECT_EQ(bits.FindNext(6), 64u);
  EXPECT_EQ(bits.FindNext(65), 199u);
  EXPECT_EQ(bits.FindNext(200), 200u);
}

TEST(DynamicBitsetTest, IterationViaToVector) {
  DynamicBitset bits(128);
  bits.Set(1);
  bits.Set(64);
  bits.Set(127);
  EXPECT_EQ(bits.ToVector(), (std::vector<size_t>{1, 64, 127}));
}

TEST(DynamicBitsetTest, Equality) {
  DynamicBitset a(65);
  DynamicBitset b(65);
  EXPECT_EQ(a, b);
  a.Set(64);
  EXPECT_FALSE(a == b);
  b.Set(64);
  EXPECT_EQ(a, b);
}

TEST(DynamicBitsetTest, RandomizedAgainstReference) {
  Rng rng(55);
  const size_t n = 300;
  DynamicBitset bits(n);
  std::vector<bool> reference(n, false);
  for (int op = 0; op < 2000; ++op) {
    const size_t pos = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    const bool value = rng.Bernoulli(0.5);
    bits.Set(pos, value);
    reference[pos] = value;
  }
  size_t expected_count = 0;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(bits.Test(i), reference[i]) << "position " << i;
    if (reference[i]) ++expected_count;
  }
  EXPECT_EQ(bits.Count(), expected_count);
}

}  // namespace
}  // namespace jim::util
