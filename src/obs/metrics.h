#ifndef JIM_OBS_METRICS_H_
#define JIM_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace jim::util {
class JsonWriter;
}  // namespace jim::util

namespace jim::obs {

/// Process-wide metrics switch. Off by default; resolved once from the
/// JIM_METRICS environment variable (any non-empty value other than "0"
/// enables), overridable at runtime via SetMetricsEnabled. Every
/// instrumentation macro guards on this, so the disabled-path cost of a
/// metric site is one relaxed atomic load and a branch.
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

namespace internal_metrics {

/// Counters shard their cells so concurrent hot paths don't bounce one
/// cache line between cores. 16 shards covers the pool sizes this repo
/// runs (ThreadPool caps out well below that in CI) without making every
/// Counter enormous.
inline constexpr size_t kShards = 16;

struct alignas(64) ShardCell {
  std::atomic<uint64_t> value{0};
};

/// Dense per-thread shard index: threads get 0,1,2,... in first-use order,
/// reduced mod kShards. Dense (not hashed from thread::id) so that a
/// single-threaded process always lands on shard 0 and snapshots stay
/// reproducible.
size_t ThisThreadShard();

}  // namespace internal_metrics

/// Monotone event count. Add() is one relaxed fetch_add on a thread-local
/// shard; Value() sums the shards in index order, which makes aggregation
/// deterministic: the total is an order-independent sum, identical for
/// identical event multisets regardless of which thread counted what.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    cells_[internal_metrics::ThisThreadShard()].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  uint64_t Value() const;
  void Reset();

 private:
  friend class MetricsRegistry;
  Counter() = default;
  internal_metrics::ShardCell cells_[internal_metrics::kShards];
};

/// Last-write-wins level (thread counts, configured capacities). Not
/// sharded: gauges are set at configuration points, not on hot paths.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket power-of-two histogram. Bucket i holds values whose bit
/// width is i (bucket 0: value 0; bucket i: [2^(i-1), 2^i - 1]), clamped to
/// the last bucket, so 40 buckets span microsecond latencies up to ~6 days.
/// Observe() is three relaxed adds on a thread-local shard; Snap() sums
/// shards in index order. Count, sum, and buckets of *value* histograms
/// (sizes, item counts) are therefore deterministic across runs and thread
/// counts; histograms fed wall-clock durations (named "*_micros" by
/// convention) have run-dependent sums/buckets but deterministic counts.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 40;

  void Observe(uint64_t value) {
    Shard& shard = shards_[internal_metrics::ThisThreadShard()];
    shard.count.fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
    shard.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  }

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    std::array<uint64_t, kNumBuckets> buckets{};
  };
  Snapshot Snap() const;
  void Reset();

  static size_t BucketIndex(uint64_t value);
  /// Largest value bucket i admits (inclusive); 2^i - 1 except the last
  /// bucket, which is unbounded and reports UINT64_MAX.
  static uint64_t BucketUpperBound(size_t bucket);

 private:
  friend class MetricsRegistry;
  Histogram() = default;
  struct alignas(64) Shard {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> buckets[kNumBuckets]{};
  };
  Shard shards_[internal_metrics::kShards];
};

/// Aggregated point-in-time view of every registered metric, sorted by
/// name. Taken while writers are quiescent it is exact and deterministic;
/// taken mid-flight each cell is individually atomic but the whole is a
/// best-effort cut.
struct MetricsSnapshot {
  struct HistogramData {
    std::string name;
    uint64_t count = 0;
    uint64_t sum = 0;
    /// (inclusive upper bound, count) for non-empty buckets only.
    std::vector<std::pair<uint64_t, uint64_t>> buckets;
  };
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramData> histograms;

  /// Appends this snapshot as one JSON object value:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,
  /// buckets:[[le,count],...]}}}. Keys are sorted, output is byte-stable
  /// for equal snapshots.
  void AppendTo(util::JsonWriter& json) const;
  std::string ToJson() const;
};

/// Process-wide registry. Metric objects are owned by the registry, never
/// deleted, and address-stable for the life of the process, so call sites
/// may cache `static Counter& c = ...Instance().GetCounter(name)` once and
/// bump it lock-free forever after. ResetForTesting zeroes values in place
/// without invalidating those cached references.
class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;
  void ResetForTesting();

  /// Convenience: current value of the named counter (registering it if
  /// it does not exist yet). For hot paths prefer caching the Counter&.
  uint64_t CounterValue(std::string_view name) {
    return GetCounter(name).Value();
  }

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  // std::map: sorted iteration gives deterministic snapshots; node-based
  // storage plus unique_ptr keeps metric addresses stable across inserts.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace jim::obs

#define JIM_OBS_CONCAT_INNER(a, b) a##b
#define JIM_OBS_CONCAT(a, b) JIM_OBS_CONCAT_INNER(a, b)

/// Bumps counter `name` by `n` when metrics are enabled. The registry
/// lookup happens once per call site (function-local static); the steady
/// state is one enabled-check branch plus one relaxed fetch_add.
#define JIM_COUNT_N(name, n)                                          \
  do {                                                                \
    if (::jim::obs::MetricsEnabled()) {                               \
      static ::jim::obs::Counter& jim_obs_counter =                   \
          ::jim::obs::MetricsRegistry::Instance().GetCounter(name);   \
      jim_obs_counter.Add(n);                                         \
    }                                                                 \
  } while (0)
#define JIM_COUNT(name) JIM_COUNT_N(name, 1)

/// Records `value` into histogram `name` when metrics are enabled.
#define JIM_OBSERVE(name, value)                                      \
  do {                                                                \
    if (::jim::obs::MetricsEnabled()) {                               \
      static ::jim::obs::Histogram& jim_obs_hist =                    \
          ::jim::obs::MetricsRegistry::Instance().GetHistogram(name); \
      jim_obs_hist.Observe(value);                                    \
    }                                                                 \
  } while (0)

/// Sets gauge `name` to `value` when metrics are enabled.
#define JIM_GAUGE_SET(name, value)                                    \
  do {                                                                \
    if (::jim::obs::MetricsEnabled()) {                               \
      static ::jim::obs::Gauge& jim_obs_gauge =                       \
          ::jim::obs::MetricsRegistry::Instance().GetGauge(name);     \
      jim_obs_gauge.Set(value);                                       \
    }                                                                 \
  } while (0)

#endif  // JIM_OBS_METRICS_H_
