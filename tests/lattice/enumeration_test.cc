#include "lattice/enumeration.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "support/refinements.h"

namespace jim::lat {
namespace {

TEST(BellNumberTest, KnownValues) {
  EXPECT_EQ(BellNumber(0), 1u);
  EXPECT_EQ(BellNumber(1), 1u);
  EXPECT_EQ(BellNumber(2), 2u);
  EXPECT_EQ(BellNumber(3), 5u);
  EXPECT_EQ(BellNumber(4), 15u);
  EXPECT_EQ(BellNumber(5), 52u);
  EXPECT_EQ(BellNumber(10), 115975u);
  EXPECT_EQ(BellNumber(20), 51724158235372ull);
  EXPECT_EQ(BellNumber(25), 4638590332229999353ull);
}

TEST(VisitAllPartitionsTest, CountMatchesBell) {
  for (size_t n = 0; n <= 8; ++n) {
    size_t count = 0;
    VisitAllPartitions(n, [&count](const Partition&) {
      ++count;
      return true;
    });
    EXPECT_EQ(count, BellNumber(n)) << "n=" << n;
  }
}

TEST(VisitAllPartitionsTest, AllDistinctAndValid) {
  std::set<std::string> seen;
  VisitAllPartitions(5, [&seen](const Partition& p) {
    EXPECT_EQ(p.num_elements(), 5u);
    EXPECT_TRUE(seen.insert(p.ToString()).second) << p.ToString();
    return true;
  });
  EXPECT_EQ(seen.size(), 52u);
}

TEST(VisitAllPartitionsTest, EarlyStop) {
  size_t count = 0;
  const bool completed = VisitAllPartitions(6, [&count](const Partition&) {
    return ++count < 10;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 10u);
}

TEST(AllPartitionsTest, MaterializesAll) {
  EXPECT_EQ(AllPartitions(4).size(), 15u);
  EXPECT_EQ(AllPartitions(0).size(), 1u);
}

TEST(RefinementsTest, CountFormula) {
  // Refinements of a partition with block sizes s_i number ∏ B(s_i).
  const Partition p = Partition::FromLabels({0, 0, 0, 1, 1, 2});
  EXPECT_EQ(CountRefinements(p), BellNumber(3) * BellNumber(2) * BellNumber(1));
  size_t visited = 0;
  VisitRefinements(p, [&](const Partition& q) {
    EXPECT_TRUE(q.Refines(p));
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, CountRefinements(p));
}

std::vector<Partition> AllRefinementsOf(const Partition& p) {
  std::vector<Partition> out;
  VisitRefinements(p, [&out](const Partition& q) {
    out.push_back(q);
    return true;
  });
  return out;
}

TEST(RefinementsTest, TopYieldsWholeLattice) {
  // Refinements of ⊤ are all partitions.
  const auto refinements = AllRefinementsOf(Partition::Top(5));
  EXPECT_EQ(refinements.size(), BellNumber(5));
}

TEST(RefinementsTest, BottomYieldsItself) {
  const auto refinements = AllRefinementsOf(Partition::Singletons(5));
  ASSERT_EQ(refinements.size(), 1u);
  EXPECT_EQ(refinements[0], Partition::Singletons(5));
}

TEST(RefinementsTest, ExactlyTheRefinementsByBruteForce) {
  const Partition p = Partition::FromLabels({0, 1, 0, 1, 2});
  std::set<std::string> from_visit;
  VisitRefinements(p, [&](const Partition& q) {
    from_visit.insert(q.ToString());
    return true;
  });
  std::set<std::string> brute_force;
  VisitAllPartitions(5, [&](const Partition& q) {
    if (q.Refines(p)) brute_force.insert(q.ToString());
    return true;
  });
  EXPECT_EQ(from_visit, brute_force);
}

}  // namespace
}  // namespace jim::lat
