#include "util/rng.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

namespace jim::util {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  size_t differences = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() != b.Next()) ++differences;
  }
  EXPECT_GT(differences, 60u);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(RngTest, UniformIntSingletonRange) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.UniformInt(4, 4), 4);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.UniformInt(0, 9));
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / 20000, 0.3, 0.02);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = items;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(RngTest, SampleIndicesDistinctAndSorted) {
  Rng rng(29);
  for (int trial = 0; trial < 50; ++trial) {
    const auto sample = rng.SampleIndices(100, 10);
    ASSERT_EQ(sample.size(), 10u);
    EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
    const std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 10u);
    for (size_t index : sample) EXPECT_LT(index, 100u);
  }
}

TEST(RngTest, SampleIndicesWholePopulation) {
  Rng rng(31);
  const auto sample = rng.SampleIndices(5, 10);
  EXPECT_EQ(sample, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(RngTest, PickOneAlwaysReturnsMember) {
  Rng rng(41);
  const std::vector<std::string> items = {"a", "b", "c"};
  for (int i = 0; i < 100; ++i) {
    const std::string& pick = rng.PickOne(items);
    EXPECT_TRUE(pick == "a" || pick == "b" || pick == "c");
  }
}

}  // namespace
}  // namespace jim::util
