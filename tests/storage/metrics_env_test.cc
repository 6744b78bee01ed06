// MetricsEnv: the observability decorator of the storage seam. These tests
// pin its registry mirror — every attempted op, byte, failure and retry
// lands in the "storage.*" counters, which only move while metrics are
// enabled — and that forwarding is otherwise transparent.

#include "storage/metrics_env.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "storage/env.h"
#include "support/fault_env.h"
#include "support/tally_env.h"
#include "util/status.h"

namespace jim::storage {
namespace {

util::Status WriteThrough(Env& env, const std::string& path,
                          const std::string& contents, bool sync) {
  auto file = env.NewWritableFile(path);
  if (!file.ok()) return file.status();
  RETURN_IF_ERROR((*file)->Append(contents));
  if (sync) RETURN_IF_ERROR((*file)->Sync());
  return (*file)->Close();
}

/// Every case starts from a zeroed registry with metrics on, so
/// RegistryStorageCounts() reads exactly what the case's MetricsEnv
/// mirrored.
class MetricsEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::MetricsEnabled();
    obs::SetMetricsEnabled(true);
    obs::MetricsRegistry::Instance().ResetForTesting();
  }
  void TearDown() override {
    obs::MetricsRegistry::Instance().ResetForTesting();
    obs::SetMetricsEnabled(was_enabled_);
  }

 private:
  bool was_enabled_ = false;
};

TEST_F(MetricsEnvTest, CountsTheWritePath) {
  FaultInjectionEnv fault;  // virtual filesystem — nothing touches disk
  MetricsEnv env(&fault);
  ASSERT_TRUE(WriteThrough(env, "v/a.txt", "hello", /*sync=*/true).ok());

  const StorageCounts counts = RegistryStorageCounts();
  EXPECT_EQ(counts.creates, 1u);
  EXPECT_EQ(counts.appends, 1u);
  EXPECT_EQ(counts.append_bytes, 5u);
  EXPECT_EQ(counts.fsyncs, 1u);
  EXPECT_EQ(counts.closes, 1u);
  EXPECT_EQ(counts.failures, 0u);
  EXPECT_EQ(counts.ops(), 4u);

  obs::MetricsRegistry::Instance().ResetForTesting();
  EXPECT_EQ(RegistryStorageCounts().ops(), 0u);
}

TEST_F(MetricsEnvTest, CountsTheReadPath) {
  FaultInjectionEnv fault;
  MetricsEnv env(&fault);
  ASSERT_TRUE(WriteThrough(env, "v/a.txt", "payload", /*sync=*/false).ok());

  ASSERT_TRUE(env.ReadFileToString("v/a.txt").ok());
  ASSERT_TRUE(env.FileSize("v/a.txt").ok());
  ASSERT_TRUE(env.ListDirectory("v").ok());

  const StorageCounts counts = RegistryStorageCounts();
  EXPECT_EQ(counts.reads, 1u);
  EXPECT_EQ(counts.read_bytes, 7u);
  EXPECT_EQ(counts.stats, 1u);
  EXPECT_EQ(counts.lists, 1u);
  EXPECT_EQ(counts.failures, 0u);
}

TEST_F(MetricsEnvTest, FailuresAreCountedAndForwardedVerbatim) {
  FaultInjectionEnv fault;
  MetricsEnv env(&fault);
  // Op #0 is the create below.
  fault.FailAtOp(0, util::UnavailableError("injected"));
  const auto file = env.NewWritableFile("v/x.txt");
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), util::StatusCode::kUnavailable);

  const auto missing = env.ReadFileToString("v/never_written.txt");
  EXPECT_FALSE(missing.ok());

  const StorageCounts counts = RegistryStorageCounts();
  EXPECT_EQ(counts.creates, 1u);  // attempted ops count even when they fail
  EXPECT_EQ(counts.reads, 1u);
  EXPECT_EQ(counts.read_bytes, 0u);  // no bytes on a failed read
  EXPECT_EQ(counts.failures, 2u);
}

TEST_F(MetricsEnvTest, RetriesBecomeSleepCounts) {
  // The composition the fault suites rely on: MetricsEnv(&fault_env) sees
  // each attempted operation plus the backoff sleeps between attempts, so
  // "how many retries did recovery take" is a number, not an inference.
  // The TallyEnv between them totals the backoff the registry does not.
  FaultInjectionEnv fault;
  TallyEnv tally(&fault);
  MetricsEnv env(&tally);
  // Fault the append of the first attempt (create=0, append=1).
  fault.FailAtOp(1, util::UnavailableError("injected EINTR"));

  RetryPolicy policy;
  const util::Status status = RetryWithBackoff(env, policy, [&] {
    return WriteFileAtomically(env, "v/b.txt", "payload");
  });
  ASSERT_TRUE(status.ok()) << status;

  const StorageCounts counts = RegistryStorageCounts();
  EXPECT_EQ(counts.sleeps, 1u);  // one transient fault → one retry
  EXPECT_GT(tally.counts().micros_slept, 0u);
  EXPECT_GE(counts.failures, 1u);  // at least the faulted append
  EXPECT_EQ(counts.sleeps, fault.sleeps_recorded());
  EXPECT_EQ(tally.counts().micros_slept, fault.micros_slept());
  EXPECT_EQ(env.ReadFileToString("v/b.txt").value(), "payload");
}

TEST_F(MetricsEnvTest, MirrorsIntoTheRegistryOnlyWhenEnabled) {
  auto& registry = obs::MetricsRegistry::Instance();

  obs::SetMetricsEnabled(false);
  {
    FaultInjectionEnv fault;
    MetricsEnv env(&fault);
    ASSERT_TRUE(WriteThrough(env, "v/off.txt", "abc", /*sync=*/true).ok());
  }
  EXPECT_EQ(registry.CounterValue(obs::kCounterStorageCreates), 0u);
  EXPECT_EQ(registry.CounterValue(obs::kCounterStorageAppendBytes), 0u);
  EXPECT_EQ(registry.CounterValue(obs::kCounterStorageCloses), 0u);

  obs::SetMetricsEnabled(true);
  {
    FaultInjectionEnv fault;
    MetricsEnv env(&fault);
    ASSERT_TRUE(WriteThrough(env, "v/on.txt", "abc", /*sync=*/true).ok());
  }
  EXPECT_EQ(registry.CounterValue(obs::kCounterStorageCreates), 1u);
  EXPECT_EQ(registry.CounterValue(obs::kCounterStorageAppendBytes), 3u);
  EXPECT_EQ(registry.CounterValue(obs::kCounterStorageFsyncs), 1u);
  EXPECT_EQ(registry.CounterValue(obs::kCounterStorageCloses), 1u);
}

TEST_F(MetricsEnvTest, WrapsDefaultEnvForRealIo) {
  // nullptr base → DefaultEnv(): a real round-trip through the posix
  // backend, counted.
  MetricsEnv env;
  const std::string path = ::testing::TempDir() + "metrics_env_real.txt";
  ASSERT_TRUE(WriteThrough(env, path, "real", /*sync=*/false).ok());
  EXPECT_EQ(env.ReadFileToString(path).value(), "real");
  ASSERT_TRUE(env.RemoveFile(path).ok());

  const StorageCounts counts = RegistryStorageCounts();
  EXPECT_EQ(counts.creates, 1u);
  EXPECT_EQ(counts.reads, 1u);
  EXPECT_EQ(counts.read_bytes, 4u);
  EXPECT_EQ(counts.removes, 1u);
}

}  // namespace
}  // namespace jim::storage
