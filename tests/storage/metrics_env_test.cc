// MetricsEnv: the observability decorator of the storage seam. These tests
// pin the dual-sink contract — the always-on local tally that fault suites
// assert retry counts against, and the obs-registry mirror that only moves
// while metrics are enabled — and that forwarding is otherwise transparent.

#include "storage/metrics_env.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "storage/env.h"
#include "support/fault_env.h"
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

TEST(MetricsEnvTest, CountsTheWritePath) {
  FaultInjectionEnv fault;  // virtual filesystem — nothing touches disk
  MetricsEnv env(&fault);
  ASSERT_TRUE(WriteThrough(env, "v/a.txt", "hello", /*sync=*/true).ok());

  const MetricsEnv::Counts counts = env.counts();
  EXPECT_EQ(counts.creates, 1u);
  EXPECT_EQ(counts.appends, 1u);
  EXPECT_EQ(counts.append_bytes, 5u);
  EXPECT_EQ(counts.fsyncs, 1u);
  EXPECT_EQ(counts.closes, 1u);
  EXPECT_EQ(counts.failures, 0u);
  EXPECT_EQ(counts.ops(), 4u);

  env.ResetCounts();
  EXPECT_EQ(env.counts().ops(), 0u);
}

TEST(MetricsEnvTest, CountsTheReadPath) {
  FaultInjectionEnv fault;
  MetricsEnv env(&fault);
  ASSERT_TRUE(WriteThrough(env, "v/a.txt", "payload", /*sync=*/false).ok());

  ASSERT_TRUE(env.ReadFileToString("v/a.txt").ok());
  ASSERT_TRUE(env.FileSize("v/a.txt").ok());
  ASSERT_TRUE(env.ListDirectory("v").ok());

  const MetricsEnv::Counts counts = env.counts();
  EXPECT_EQ(counts.reads, 1u);
  EXPECT_EQ(counts.read_bytes, 7u);
  EXPECT_EQ(counts.stats, 1u);
  EXPECT_EQ(counts.lists, 1u);
  EXPECT_EQ(counts.failures, 0u);
}

TEST(MetricsEnvTest, FailuresAreCountedAndForwardedVerbatim) {
  FaultInjectionEnv fault;
  MetricsEnv env(&fault);
  // Op #0 is the create below.
  fault.FailAtOp(0, util::UnavailableError("injected"));
  const auto file = env.NewWritableFile("v/x.txt");
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), util::StatusCode::kUnavailable);

  const auto missing = env.ReadFileToString("v/never_written.txt");
  EXPECT_FALSE(missing.ok());

  const MetricsEnv::Counts counts = env.counts();
  EXPECT_EQ(counts.creates, 1u);  // attempted ops count even when they fail
  EXPECT_EQ(counts.reads, 1u);
  EXPECT_EQ(counts.read_bytes, 0u);  // no bytes on a failed read
  EXPECT_EQ(counts.failures, 2u);
}

TEST(MetricsEnvTest, RetriesBecomeSleepCounts) {
  // The composition the fault suites rely on: MetricsEnv(&fault_env) sees
  // each attempted operation plus the backoff sleeps between attempts, so
  // "how many retries did recovery take" is a number, not an inference.
  FaultInjectionEnv fault;
  MetricsEnv env(&fault);
  // Fault the append of the first attempt (create=0, append=1).
  fault.FailAtOp(1, util::UnavailableError("injected EINTR"));

  RetryPolicy policy;
  const util::Status status = RetryWithBackoff(env, policy, [&] {
    return WriteFileAtomically(env, "v/b.txt", "payload");
  });
  ASSERT_TRUE(status.ok()) << status;

  const MetricsEnv::Counts counts = env.counts();
  EXPECT_EQ(counts.sleeps, 1u);  // one transient fault → one retry
  EXPECT_GT(counts.micros_slept, 0u);
  EXPECT_GE(counts.failures, 1u);  // at least the faulted append
  EXPECT_EQ(counts.sleeps, fault.sleeps_recorded());
  EXPECT_EQ(counts.micros_slept, fault.micros_slept());
  EXPECT_EQ(env.ReadFileToString("v/b.txt").value(), "payload");
}

TEST(MetricsEnvTest, MirrorsIntoTheRegistryOnlyWhenEnabled) {
  const bool was_enabled = obs::MetricsEnabled();
  auto& registry = obs::MetricsRegistry::Instance();

  obs::SetMetricsEnabled(false);
  registry.ResetForTesting();
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

  registry.ResetForTesting();
  obs::SetMetricsEnabled(was_enabled);
}

TEST(MetricsEnvTest, WrapsDefaultEnvForRealIo) {
  // nullptr base → DefaultEnv(): a real round-trip through the posix
  // backend, counted.
  MetricsEnv env;
  const std::string path = ::testing::TempDir() + "metrics_env_real.txt";
  ASSERT_TRUE(WriteThrough(env, path, "real", /*sync=*/false).ok());
  EXPECT_EQ(env.ReadFileToString(path).value(), "real");
  ASSERT_TRUE(env.RemoveFile(path).ok());

  const MetricsEnv::Counts counts = env.counts();
  EXPECT_EQ(counts.creates, 1u);
  EXPECT_EQ(counts.reads, 1u);
  EXPECT_EQ(counts.read_bytes, 4u);
  EXPECT_EQ(counts.removes, 1u);
}

}  // namespace
}  // namespace jim::storage
