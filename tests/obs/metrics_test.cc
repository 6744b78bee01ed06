#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/jim.h"
#include "exec/batch_runner.h"
#include "exec/thread_pool.h"
#include "obs/metric_names.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/synthetic.h"

namespace jim::obs {
namespace {

/// Every test runs with metrics forced on and a zeroed registry, and
/// restores the ambient enabled state afterwards so test order (and the
/// parity suites running in the same binary) cannot observe leakage.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = MetricsEnabled();
    SetMetricsEnabled(true);
    MetricsRegistry::Instance().ResetForTesting();
  }
  void TearDown() override {
    MetricsRegistry::Instance().ResetForTesting();
    SetMetricsEnabled(was_enabled_);
  }

 private:
  bool was_enabled_ = false;
};

TEST_F(MetricsTest, CounterAccumulatesAcrossShards) {
  Counter& counter = MetricsRegistry::Instance().GetCounter("test.counter");
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add(1);
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);

  // Increments from other threads land in (possibly) different shards but
  // sum into the same total.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < 1000; ++i) counter.Add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), 42u + 4000u);

  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST_F(MetricsTest, RegistryReturnsStableReferences) {
  auto& registry = MetricsRegistry::Instance();
  Counter& a = registry.GetCounter("test.same");
  Counter& b = registry.GetCounter("test.same");
  EXPECT_EQ(&a, &b);
  // ResetForTesting zeroes in place — call-site-cached references (what the
  // JIM_COUNT macro holds in its function-local static) must stay valid.
  a.Add(7);
  registry.ResetForTesting();
  EXPECT_EQ(&registry.GetCounter("test.same"), &a);
  EXPECT_EQ(a.Value(), 0u);
}

TEST_F(MetricsTest, GaugeSetAndReset) {
  Gauge& gauge = MetricsRegistry::Instance().GetGauge("test.gauge");
  gauge.Set(10);
  EXPECT_EQ(gauge.Value(), 10);
  gauge.Set(7);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0);
}

TEST_F(MetricsTest, HistogramBucketMath) {
  // Power-of-two buckets: bucket 0 holds exactly 0, bucket i holds
  // [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<uint64_t>::max()),
            Histogram::kNumBuckets - 1);

  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kNumBuckets - 1),
            std::numeric_limits<uint64_t>::max());

  // Every value lands inside its bucket's range.
  for (uint64_t v : {0ull, 1ull, 2ull, 100ull, 65536ull, 1ull << 40}) {
    const size_t bucket = Histogram::BucketIndex(v);
    EXPECT_LE(v, Histogram::BucketUpperBound(bucket)) << v;
    if (bucket > 0) {
      EXPECT_GT(v, Histogram::BucketUpperBound(bucket - 1)) << v;
    }
  }
}

TEST_F(MetricsTest, HistogramObserveAndSnapshot) {
  Histogram& hist = MetricsRegistry::Instance().GetHistogram("test.hist");
  hist.Observe(0);
  hist.Observe(1);
  hist.Observe(5);
  hist.Observe(5);
  const Histogram::Snapshot snap = hist.Snap();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum, 11u);
  EXPECT_EQ(snap.buckets[0], 1u);  // the 0
  EXPECT_EQ(snap.buckets[1], 1u);  // the 1
  EXPECT_EQ(snap.buckets[3], 2u);  // the 5s, in [4, 7]
}

TEST_F(MetricsTest, MacrosAreInertWhenDisabled) {
  SetMetricsEnabled(false);
  JIM_COUNT("test.disabled");
  JIM_COUNT_N("test.disabled", 10);
  JIM_OBSERVE("test.disabled_hist", 3);
  JIM_GAUGE_SET("test.disabled_gauge", 9);
  SetMetricsEnabled(true);
  auto& registry = MetricsRegistry::Instance();
  EXPECT_EQ(registry.CounterValue("test.disabled"), 0u);
  EXPECT_EQ(registry.GetHistogram("test.disabled_hist").Snap().count, 0u);
  EXPECT_EQ(registry.GetGauge("test.disabled_gauge").Value(), 0);

  JIM_COUNT_N("test.enabled", 3);
  EXPECT_EQ(registry.CounterValue("test.enabled"), 3u);
}

TEST_F(MetricsTest, SnapshotJsonShape) {
  auto& registry = MetricsRegistry::Instance();
  registry.GetCounter("test.z_counter").Add(2);
  registry.GetCounter("test.a_counter").Add(1);
  registry.GetGauge("test.gauge").Set(-4);
  registry.GetHistogram("test.hist").Observe(3);

  const std::string json = registry.Snapshot().ToJson();
  // Map-ordered: a_counter before z_counter regardless of creation order.
  EXPECT_NE(json.find("\"test.a_counter\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.z_counter\":2"), std::string::npos) << json;
  EXPECT_LT(json.find("\"test.a_counter\""), json.find("\"test.z_counter\""));
  EXPECT_NE(json.find("\"test.gauge\":-4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.hist\":{\"count\":1,\"sum\":3,"
                      "\"buckets\":[[3,1]]}"),
            std::string::npos)
      << json;
}

TEST_F(MetricsTest, ConcurrentRegistryAccess) {
  // Hammers name interning and sharded increments from many threads at
  // once — the TSAN stage runs this to prove the registry is race-free.
  auto& registry = MetricsRegistry::Instance();
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < 500; ++i) {
        registry.GetCounter("test.shared").Add(1);
        registry
            .GetCounter(util::StrFormat("test.per_thread.%d", t % 4))
            .Add(1);
        registry.GetHistogram("test.shared_hist").Observe(
            static_cast<uint64_t>(i));
        if (i % 100 == 0) (void)registry.Snapshot();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry.CounterValue("test.shared"), 4000u);
  uint64_t per_thread_total = 0;
  for (int t = 0; t < 4; ++t) {
    per_thread_total +=
        registry.CounterValue(util::StrFormat("test.per_thread.%d", t));
  }
  EXPECT_EQ(per_thread_total, 4000u);
  EXPECT_EQ(registry.GetHistogram("test.shared_hist").Snap().count, 4000u);
}

/// Deterministic projection of a snapshot: everything except the sums and
/// bucket spreads of wall-clock histograms (the `_micros` naming
/// convention) — those carry real elapsed time; their *counts* are still
/// work counts and must reproduce exactly.
std::string DeterministicProjection(const MetricsSnapshot& snap) {
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    out += util::StrFormat("%s=%llu\n", name.c_str(),
                           static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : snap.gauges) {
    out += util::StrFormat("%s=%lld\n", name.c_str(),
                           static_cast<long long>(value));
  }
  for (const auto& hist : snap.histograms) {
    out += util::StrFormat("%s.count=%llu\n", hist.name.c_str(),
                           static_cast<unsigned long long>(hist.count));
    if (util::EndsWith(hist.name, "_micros")) continue;
    out += util::StrFormat("%s.sum=%llu\n", hist.name.c_str(),
                           static_cast<unsigned long long>(hist.sum));
    for (const auto& [upper, count] : hist.buckets) {
      out += util::StrFormat("%s.le%llu=%llu\n", hist.name.c_str(),
                             static_cast<unsigned long long>(upper),
                             static_cast<unsigned long long>(count));
    }
  }
  return out;
}

TEST_F(MetricsTest, BatchRunnerSnapshotIsDeterministicAcrossRuns) {
  util::Rng rng(23);
  workload::SyntheticSpec spec;
  spec.num_attributes = 6;
  spec.num_tuples = 150;
  spec.domain_size = 4;
  spec.goal_constraints = 2;
  const auto workload = workload::MakeSyntheticWorkload(spec, rng);
  auto prototype =
      std::make_shared<const core::InferenceEngine>(workload.instance);

  const auto run_once = [&] {
    MetricsRegistry::Instance().ResetForTesting();
    std::vector<exec::SessionSpec> specs;
    for (const char* name : {"random", "local-bottom-up"}) {
      for (uint64_t seed : {1u, 2u, 3u}) {
        exec::SessionSpec session(prototype, workload.goal);
        session.make_strategy = [name, seed] {
          return core::MakeStrategy(name, seed).value();
        };
        specs.push_back(std::move(session));
      }
    }
    exec::ThreadPool pool(4);
    exec::BatchSessionRunner(&pool).Run(specs);
    return DeterministicProjection(MetricsRegistry::Instance().Snapshot());
  };

  const std::string first = run_once();
  // The engine-side counters moved — the projection is not vacuous.
  EXPECT_NE(first.find(std::string(kCounterExecBatchSessions) + "=6"),
            std::string::npos)
      << first;
  EXPECT_NE(first.find(kCounterEnginePropagateRuns), std::string::npos);
  for (int repeat = 0; repeat < 2; ++repeat) {
    EXPECT_EQ(run_once(), first) << "repeat " << repeat;
  }
}

}  // namespace
}  // namespace jim::obs
