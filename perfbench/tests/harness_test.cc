// Tests for the benchmark harness's own pieces: the percentile helpers and
// their sample-count guard, the floors, the counting Env decorator,
// the in-memory checkpoint directory, and the planted-goal oracle. Run with
// `ctest --test-dir .bench_build/perfbench` after a build.

#include <sys/stat.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/join_predicate.h"
#include "harness/counting_env.h"
#include "harness/goal_oracle.h"
#include "harness/stats.h"
#include "serve/checkpoint.h"
#include "util/rng.h"
#include "workload/synthetic.h"
#include "workload/travel.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> samples;
  for (size_t i = n; i >= 1; --i) samples.push_back(static_cast<double>(i));
  return samples;
}

TEST(QuantileTest, InterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(Quantile(OneTo(100), 0.5), 50.5);
  EXPECT_DOUBLE_EQ(Quantile(OneTo(100), 0.9), 90.1);
  EXPECT_DOUBLE_EQ(Quantile(OneTo(1), 0.9), 1.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(QuietLow(OneTo(5)), 1.2);
  EXPECT_DOUBLE_EQ(QuietHigh(OneTo(5)), 4.8);
}

TEST(BlockQuantilesTest, SummarizesFullBlocksOnly) {
  BlockQuantiles quantiles;
  for (size_t i = 1; i <= 99; ++i) quantiles.Add(static_cast<double>(i));
  const auto too_few = quantiles.P90("latency");
  ASSERT_FALSE(too_few.ok());
  EXPECT_NE(too_few.status().message().find("latency"), std::string::npos);

  quantiles.Add(100);
  EXPECT_DOUBLE_EQ(*quantiles.P50("latency"), 50.5);
  EXPECT_DOUBLE_EQ(*quantiles.P90("latency"), 90.1);  // ten samples beyond
}

TEST(BlockQuantilesTest, SlowBlocksDoNotMoveTheFigure) {
  BlockQuantiles quick, slow;
  for (int block = 0; block < 3; ++block) {
    for (double v : OneTo(100)) quick.Add(v);
  }
  for (int block = 0; block < 2; ++block) {
    for (double v : OneTo(100)) slow.Add(v * 10);
  }
  slow.Add(5);  // a partial block, dropped by Merge
  quick.Merge(slow);
  EXPECT_DOUBLE_EQ(*quick.P50("latency"), 50.5);
  EXPECT_DOUBLE_EQ(*quick.P90("latency"), 90.1);
}

TEST(BlockQuantilesTest, BlockSizeZeroTakesEverySample) {
  BlockQuantiles first(0), second(0);
  for (double v : OneTo(60)) first.Add(v);
  EXPECT_FALSE(first.P90("latency").ok());
  for (double v : OneTo(60)) second.Add(v + 60);
  first.Merge(second);  // 1..120, one block
  EXPECT_DOUBLE_EQ(*first.P50("latency"), 60.5);
  EXPECT_DOUBLE_EQ(*first.P90("latency"), 108.1);
}

TEST(FloorTest, TakesTheLeastTiming) {
  EXPECT_DOUBLE_EQ(Floor({3.0, 1.5, 2.0}), 1.5);
  EXPECT_DOUBLE_EQ(Floor({}), 0.0);
}

TEST(FloorMapTest, KeepsTheLeastTimePerStateAcrossMerges) {
  FloorMap quick, slow;
  quick.Add("first", 10.0);
  quick.Add("next:3+", 5.0);
  slow.Add("first", 14.0);  // a play slowed by another tenant
  slow.Add("first", 9.5);
  slow.Add("next:3-", 2.0);
  quick.Merge(slow);
  EXPECT_DOUBLE_EQ(quick.Floor("first"), 9.5);
  EXPECT_EQ(quick.Count("first"), 3u);
  EXPECT_DOUBLE_EQ(quick.Floor("next:3+"), 5.0);
  EXPECT_DOUBLE_EQ(quick.Floor("next:3-"), 2.0);
  EXPECT_DOUBLE_EQ(quick.Floor("next:7+"), 0.0);
  EXPECT_EQ(quick.Count("next:7+"), 0u);
  EXPECT_EQ(quick.size(), 3u);
}

TEST(CountingEnvTest, CountsOneCheckpointWriteExactly) {
  const std::string dir = "perfbench_test_checkpoints";
  ::mkdir(dir.c_str(), 0755);
  jim::serve::SessionCheckpoint checkpoint;
  checkpoint.session_id = "s42";
  checkpoint.instance = "instance.jimc";
  checkpoint.strategy = "lookahead-entropy";
  checkpoint.goal = "A0=A1";
  checkpoint.steps.resize(3);

  CountingEnv env;
  ASSERT_TRUE(jim::serve::WriteCheckpoint(env, dir, checkpoint,
                                          jim::storage::RetryPolicy())
                  .ok());
  const CountingEnv::Counts counts = env.counts();
  EXPECT_EQ(counts.creates, 1u);
  EXPECT_EQ(counts.appends, 1u);
  EXPECT_EQ(counts.append_bytes,
            jim::serve::EncodeCheckpoint(checkpoint).size());
  EXPECT_EQ(counts.syncs, 1u);
  EXPECT_EQ(counts.closes, 1u);
  EXPECT_EQ(counts.renames, 1u);
  EXPECT_EQ(counts.dir_syncs, 1u);
  EXPECT_EQ(counts.reads, 0u);
  EXPECT_GT(counts.write_nanos, 0);
  EXPECT_GE(CountingEnv::ThreadWriteNanos(), counts.write_nanos);

  // The decorator forwards: the checkpoint reads back through it.
  const std::string path = dir + "/" + jim::serve::CheckpointFileName("s42");
  const auto read = jim::serve::ReadCheckpoint(env, path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->steps.size(), 3u);
  EXPECT_EQ(env.counts().reads, 1u);
  EXPECT_EQ(env.counts().read_bytes, counts.append_bytes);
  EXPECT_TRUE(env.RemoveFile(path).ok());
  EXPECT_EQ(env.counts().removes, 1u);
  ::rmdir(dir.c_str());
}

TEST(MemoryDirEnvTest, HoldsItsDirectoryInMemoryAndForwardsTheRest) {
  const std::string dir = "perfbench_test_memory";
  MemoryDirEnv memory(dir);
  CountingEnv env(&memory);
  jim::serve::SessionCheckpoint checkpoint;
  checkpoint.session_id = "s7";
  checkpoint.steps.resize(2);
  ASSERT_TRUE(jim::serve::WriteCheckpoint(env, dir, checkpoint,
                                          jim::storage::RetryPolicy())
                  .ok());
  struct stat info {};
  EXPECT_NE(::stat(dir.c_str(), &info), 0) << "nothing reaches the disk";

  const auto listed = memory.ListDirectory(dir);
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(*listed, std::vector<std::string>{"session_s7.jims"});
  const std::string path = dir + "/session_s7.jims";
  const auto read = jim::serve::ReadCheckpoint(env, path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->session_id, "s7");
  EXPECT_EQ(read->steps.size(), 2u);
  EXPECT_TRUE(memory.RemoveFile(path).ok());
  EXPECT_FALSE(memory.ReadFileToString(path).ok());

  // Paths outside the directory, including a sibling sharing its prefix,
  // go to the base Env.
  const std::string sibling = dir + "-sibling";
  EXPECT_FALSE(memory.ReadFileToString(sibling + "/missing").ok());
  ASSERT_TRUE(jim::storage::WriteFileAtomically(memory, sibling, "x").ok());
  EXPECT_EQ(::stat(sibling.c_str(), &info), 0);
  EXPECT_TRUE(memory.RemoveFile(sibling).ok());
}

void ExpectOracleMatchesSelectedRows(const jim::core::TupleStore& store,
                                     const jim::core::JoinPredicate& goal) {
  const jim::util::DynamicBitset selected = goal.SelectedRows(store);
  for (size_t t = 0; t < store.num_tuples(); ++t) {
    EXPECT_EQ(GoalSelectsTuple(store, goal, t), selected.Test(t))
        << "tuple " << t << " goal " << goal.ToString();
  }
}

TEST(GoalOracleTest, MatchesSelectedRowsOnFigureOne) {
  const auto store = jim::workload::Figure1StorePtr();
  for (const char* text : {jim::workload::kQ1, jim::workload::kQ2, ""}) {
    const auto goal = jim::core::JoinPredicate::Parse(store->schema(), text);
    ASSERT_TRUE(goal.ok());
    ExpectOracleMatchesSelectedRows(*store, *goal);
  }
}

TEST(GoalOracleTest, MatchesSelectedRowsOnRandomGoals) {
  jim::util::Rng rng(7);
  jim::workload::SyntheticSpec spec;
  spec.num_attributes = 5;
  spec.num_tuples = 300;
  spec.domain_size = 3;
  const auto workload = jim::workload::MakeSyntheticWorkload(spec, rng);
  for (size_t rank = 0; rank <= 3; ++rank) {
    const jim::core::JoinPredicate goal(
        workload.store->schema(),
        jim::workload::RandomPartitionWithRank(5, rank, rng));
    ExpectOracleMatchesSelectedRows(*workload.store, goal);
  }
}

}  // namespace
}  // namespace perfbench
