#ifndef JIM_BENCH_BENCH_UTIL_H_
#define JIM_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "exec/parallel.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/json_writer.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace jim::bench {

/// Appends the shared `"meta"` provenance block every BENCH_*.json carries:
/// resolved worker threads, the machine's hardware threads, the CMake build
/// type and sanitizer list (baked in at compile time via
/// JIM_BENCH_BUILD_TYPE / JIM_BENCH_SANITIZE), and the runtime
/// metrics/audit toggles — enough to tell two snapshots of "the same" bench
/// apart before comparing their numbers. Call it between KeyValue entries
/// of the top-level JSON object.
inline void AppendMetaBlock(util::JsonWriter& json) {
#if defined(JIM_BENCH_BUILD_TYPE)
  constexpr const char* kBuildType = JIM_BENCH_BUILD_TYPE;
#else
  constexpr const char* kBuildType = "";
#endif
#if defined(JIM_BENCH_SANITIZE)
  constexpr const char* kSanitize = JIM_BENCH_SANITIZE;
#else
  constexpr const char* kSanitize = "";
#endif
  json.Key("meta").BeginObject();
  json.KeyValue("threads", exec::DefaultThreads());
  json.KeyValue("hardware_threads",
                static_cast<size_t>(std::thread::hardware_concurrency()));
  json.KeyValue("build_type", kBuildType);
  json.KeyValue("sanitize", kSanitize);
  json.KeyValue("metrics_enabled", obs::MetricsEnabled());
  json.KeyValue("audit_invariants", util::AuditInvariantsEnabled());
  json.EndObject();
}

/// Appends the process metrics registry as a `"metrics"` key — the
/// observability counters accumulated over the bench run (empty sub-objects
/// when metrics stayed disabled). Lets perf trajectories correlate ns/op
/// movements with work-count movements (e.g. "did propagation get faster,
/// or did it just prune less?").
inline void AppendMetricsSnapshot(util::JsonWriter& json) {
  json.Key("metrics");
  obs::MetricsRegistry::Instance().Snapshot().AppendTo(json);
}

/// Shared `--threads N` parsing for the parallel benches. Consumes the flag
/// (and its value) out of argc/argv so each bench can parse its remaining
/// flags afterwards, installs the count as the process-wide default
/// (exec::SetDefaultThreads — the shared lookahead pool is sized from it),
/// and returns the resolved parallelism. Without the flag this falls back
/// to JIM_THREADS, then to the hardware thread count (see
/// exec::DefaultThreads). Exits with a usage error on a malformed value.
///
/// Thread count is a latency knob only: every parallel path in JIM is
/// deterministic, so bench decision outputs are identical at any value.
inline size_t ParseThreadsFlag(int& argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) != "--threads") continue;
    if (i + 1 >= argc) {
      std::cerr << argv[0] << ": --threads requires a count\n";
      std::exit(2);
    }
    const auto parsed = util::ParseInt64(argv[i + 1]);
    if (!parsed.ok() || *parsed <= 0) {
      std::cerr << argv[0] << ": --threads wants a positive integer (got '"
                << argv[i + 1] << "')\n";
      std::exit(2);
    }
    exec::SetDefaultThreads(static_cast<size_t>(*parsed));
    for (int j = i + 2; j < argc; ++j) argv[j - 2] = argv[j];
    argc -= 2;
    break;
  }
  return exec::DefaultThreads();
}

/// Keeps `value` observable so the compiler cannot elide a benchmarked call.
/// clang rejects non-trivially-copyable operands under the "g" constraint,
/// so it gets the memory-operand form (the named parameter is an lvalue, so
/// "m" is always satisfiable).
template <typename T>
inline void DoNotOptimize(T&& value) {
#if defined(__clang__)
  asm volatile("" : : "m"(value) : "memory");
#else
  asm volatile("" : : "g"(value) : "memory");
#endif
}

/// One measured microbenchmark case.
struct BenchResult {
  std::string name;
  int64_t arg = -1;  // -1 when the benchmark takes no size parameter
  size_t iterations = 0;
  double ns_per_op = 0;
};

/// Runs `body` repeatedly until one batch takes at least `min_seconds` of
/// wall time (with geometric iteration growth), then times 5 more batches of
/// that calibrated size and reports the fastest batch's latency per call:
/// the minimum of 5 batch means. That drops a batch a busy host slowed, not
/// a slowdown lasting the whole run, so compare commits over alternating
/// runs. Templated on the callable so the body inlines into the timed loop
/// (a std::function indirection would bias nanosecond-scale cases).
template <typename Body>
BenchResult RunBench(const std::string& name, int64_t arg, const Body& body,
                     double min_seconds = 0.05) {
  constexpr int kBatches = 5;
  size_t iterations = 1;
  util::Stopwatch total;
  for (;;) {
    util::Stopwatch watch;
    for (size_t i = 0; i < iterations; ++i) body();
    const double elapsed = watch.ElapsedSeconds();
    if (elapsed >= min_seconds || total.ElapsedSeconds() > 2.0) break;
    const double scale = elapsed > 0 ? (1.4 * min_seconds / elapsed) : 10.0;
    iterations = static_cast<size_t>(static_cast<double>(iterations) *
                                     std::min(scale, 10.0)) +
                 1;
  }
  double fastest = std::numeric_limits<double>::infinity();
  for (int batch = 0; batch < kBatches; ++batch) {
    util::Stopwatch watch;
    for (size_t i = 0; i < iterations; ++i) body();
    fastest = std::min(fastest, watch.ElapsedSeconds());
  }
  BenchResult result;
  result.name = name;
  result.arg = arg;
  result.iterations = iterations;
  result.ns_per_op = fastest * 1e9 / static_cast<double>(iterations);
  return result;
}

/// Mean and sample standard deviation of a series.
struct Series {
  std::vector<double> values;

  void Add(double v) { values.push_back(v); }
  double Mean() const {
    if (values.empty()) return 0;
    double sum = 0;
    for (double v : values) sum += v;
    return sum / static_cast<double>(values.size());
  }
  double StdDev() const {
    if (values.size() < 2) return 0;
    const double mean = Mean();
    double sq = 0;
    for (double v : values) sq += (v - mean) * (v - mean);
    return std::sqrt(sq / static_cast<double>(values.size() - 1));
  }
  double Min() const {
    double best = values.empty() ? 0 : values[0];
    for (double v : values) best = std::min(best, v);
    return best;
  }
  double Max() const {
    double worst = values.empty() ? 0 : values[0];
    for (double v : values) worst = std::max(worst, v);
    return worst;
  }
  /// "12.4 ± 1.3"
  std::string MeanStd() const {
    return util::StrFormat("%.1f ± %.1f", Mean(), StdDev());
  }
};

/// Runs `body(seed)` for `repetitions` seeds derived from `base_seed`,
/// collecting one value per run.
inline Series Repeat(size_t repetitions, uint64_t base_seed,
                     const std::function<double(uint64_t)>& body) {
  Series series;
  for (size_t r = 0; r < repetitions; ++r) {
    series.Add(body(base_seed + 1000003 * r));
  }
  return series;
}

}  // namespace jim::bench

#endif  // JIM_BENCH_BENCH_UTIL_H_
