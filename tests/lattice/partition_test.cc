#include "lattice/partition.h"

#include <gtest/gtest.h>

#include "lattice/enumeration.h"
#include "lattice/union_find.h"
#include "support/equality.h"
#include "support/refinements.h"
#include "util/rng.h"

namespace jim::lat {
namespace {

TEST(PartitionTest, SingletonsAndTop) {
  const Partition bottom = Singletons(4);
  EXPECT_EQ(bottom.num_blocks(), 4u);
  EXPECT_EQ(bottom.Rank(), 0u);
  EXPECT_TRUE(bottom.IsSingletons());
  EXPECT_EQ(bottom.ToString(), "{0|1|2|3}");

  const Partition top = Partition::Top(4);
  EXPECT_EQ(top.num_blocks(), 1u);
  EXPECT_EQ(top.Rank(), 3u);
  EXPECT_EQ(top.ToString(), "{0,1,2,3}");
}

TEST(PartitionTest, EqualityOperators) {
  // Regression: C++17 does not synthesize operator!= from operator== — the
  // seed used it without defining it and failed to compile. Only tests
  // compare partitions with !=, so it lives in support/equality.h.
  const Partition a = Partition::FromLabels({0, 0, 1});
  const Partition b = Partition::FromLabels({5, 5, 2});  // same block set
  const Partition c = Partition::FromLabels({0, 1, 1});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a != b);
  EXPECT_TRUE(a != c);
  EXPECT_FALSE(a == c);
  // Equal partitions refine each other.
  EXPECT_TRUE(a.Refines(b));
}

TEST(PartitionTest, EmptyPartition) {
  const Partition empty;
  EXPECT_EQ(empty.num_elements(), 0u);
  EXPECT_EQ(empty.num_blocks(), 0u);
  EXPECT_EQ(Singletons(0), empty);
}

TEST(PartitionTest, FromLabelsCanonicalizes) {
  // Same grouping under different raw labels must compare equal.
  const Partition a = Partition::FromLabels({5, 9, 5, 2});
  const Partition b = Partition::FromLabels({0, 1, 0, 2});
  EXPECT_EQ(a, b);
  a.CheckInvariants();
  EXPECT_EQ(a.labels()[0], a.labels()[2]);
  EXPECT_NE(a.labels()[0], a.labels()[1]);
}

TEST(PartitionTest, FromPairsTakesTransitiveClosure) {
  const Partition p = Partition::FromPairs(5, {{0, 1}, {1, 2}}).value();
  EXPECT_EQ(p.labels()[0], p.labels()[2]);
  EXPECT_EQ(p.num_blocks(), 3u);
  EXPECT_EQ(p.ToString(), "{0,1,2|3|4}");
}

TEST(PartitionTest, FromPairsRejectsOutOfRange) {
  EXPECT_FALSE(Partition::FromPairs(3, {{0, 3}}).ok());
}

TEST(PartitionTest, RefinesBasics) {
  const Partition fine = Partition::FromLabels({0, 1, 2, 3});
  const Partition mid = Partition::FromLabels({0, 0, 1, 2});
  const Partition coarse = Partition::FromLabels({0, 0, 0, 1});
  EXPECT_TRUE(fine.Refines(mid));
  EXPECT_TRUE(mid.Refines(coarse));
  EXPECT_TRUE(fine.Refines(coarse));
  EXPECT_FALSE(coarse.Refines(mid));
  EXPECT_TRUE(mid.Refines(mid));
}

TEST(PartitionTest, IncomparableElements) {
  const Partition a = Partition::FromLabels({0, 0, 1, 2});
  const Partition b = Partition::FromLabels({0, 1, 1, 2});
  EXPECT_FALSE(a.Refines(b));
  EXPECT_FALSE(b.Refines(a));
}

TEST(PartitionTest, MeetAndJoinExamples) {
  const Partition a = Partition::FromLabels({0, 0, 1, 1});  // {01|23}
  const Partition b = Partition::FromLabels({0, 1, 1, 0});  // {03|12}
  EXPECT_EQ(a.Meet(b), Singletons(4));
  EXPECT_EQ(a.Join(b), Partition::Top(4));
}

TEST(PartitionTest, BlocksAndPairs) {
  const Partition p = Partition::FromLabels({0, 1, 0, 2, 1});
  EXPECT_EQ(p.Blocks(),
            (std::vector<std::vector<size_t>>{{0, 2}, {1, 4}, {3}}));
  EXPECT_EQ(p.GeneratorPairs(),
            (std::vector<std::pair<size_t, size_t>>{{0, 2}, {1, 4}}));
}

TEST(PartitionTest, GeneratorPairsSpanBlocks) {
  const Partition p = Partition::FromLabels({0, 0, 0, 0});
  // 3 generators suffice for a 4-element block (spanning tree).
  EXPECT_EQ(p.GeneratorPairs().size(), 3u);
  EXPECT_EQ(Partition::FromPairs(4, p.GeneratorPairs()).value(), p);
}

// ---- Lattice laws, verified exhaustively over all partitions of 4 and 5 --

class LatticeLawsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(LatticeLawsTest, MeetAndJoinLaws) {
  const auto all = AllPartitions(GetParam());
  for (const Partition& a : all) {
    // Idempotence.
    EXPECT_EQ(a.Meet(a), a);
    EXPECT_EQ(a.Join(a), a);
    for (const Partition& b : all) {
      const Partition meet = a.Meet(b);
      const Partition join = a.Join(b);
      // Commutativity.
      EXPECT_EQ(meet, b.Meet(a));
      EXPECT_EQ(join, b.Join(a));
      // Meet is the greatest lower bound; join the least upper bound.
      EXPECT_TRUE(meet.Refines(a));
      EXPECT_TRUE(meet.Refines(b));
      EXPECT_TRUE(a.Refines(join));
      EXPECT_TRUE(b.Refines(join));
      // Absorption.
      EXPECT_EQ(a.Meet(a.Join(b)), a);
      EXPECT_EQ(a.Join(a.Meet(b)), a);
      // Connection between order and operations.
      EXPECT_EQ(a.Refines(b), a.Meet(b) == a);
      EXPECT_EQ(a.Refines(b), a.Join(b) == b);
    }
  }
}

TEST_P(LatticeLawsTest, MeetJoinAssociativityOnSample) {
  const auto all = AllPartitions(GetParam());
  util::Rng rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    const Partition& a = rng.PickOne(all);
    const Partition& b = rng.PickOne(all);
    const Partition& c = rng.PickOne(all);
    EXPECT_EQ(a.Meet(b.Meet(c)), a.Meet(b).Meet(c));
    EXPECT_EQ(a.Join(b.Join(c)), a.Join(b).Join(c));
  }
}

TEST_P(LatticeLawsTest, GlbProperty) {
  // Meet is the *greatest* lower bound: any common refinement refines it.
  const auto all = AllPartitions(GetParam());
  for (const Partition& a : all) {
    for (const Partition& b : all) {
      const Partition meet = a.Meet(b);
      for (const Partition& c : all) {
        if (c.Refines(a) && c.Refines(b)) {
          EXPECT_TRUE(c.Refines(meet));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SmallUniverses, LatticeLawsTest,
                         ::testing::Values(3, 4, 5));

TEST(PartitionOrderTest, BottomAndTopAreExtremes) {
  for (size_t n : {1u, 3u, 6u}) {
    const Partition bottom = Singletons(n);
    const Partition top = Partition::Top(n);
    VisitAllPartitions(n, [&](const Partition& p) {
      EXPECT_TRUE(bottom.Refines(p));
      EXPECT_TRUE(p.Refines(top));
      return true;
    });
  }
}

/// Sets in `uf` over elements 0..n-1: one representative each.
size_t NumSets(UnionFind& uf, size_t n) {
  size_t sets = 0;
  for (size_t i = 0; i < n; ++i) sets += uf.Find(i) == i;
  return sets;
}

TEST(UnionFindTest, BasicMerging) {
  UnionFind uf(5);
  EXPECT_EQ(NumSets(uf, 5), 5u);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_TRUE(uf.Union(1, 2));
  EXPECT_FALSE(uf.Union(0, 2));  // already connected
  EXPECT_TRUE(uf.Connected(0, 2));
  EXPECT_FALSE(uf.Connected(0, 3));
  EXPECT_EQ(NumSets(uf, 5), 3u);
}

TEST(UnionFindTest, FindIsStableWithinSet) {
  UnionFind uf(10);
  uf.Union(2, 7);
  uf.Union(7, 9);
  const size_t root = uf.Find(2);
  EXPECT_EQ(uf.Find(7), root);
  EXPECT_EQ(uf.Find(9), root);
}

}  // namespace
}  // namespace jim::lat
