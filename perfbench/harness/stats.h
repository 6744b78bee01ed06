#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.h"
#include "util/string_util.h"

namespace perfbench {

/// Monotonic clock in nanoseconds. Every latency the harness reports is
/// taken at this resolution and only converted to µs when printed, so a
/// 4 µs request is not rounded to a whole microsecond.
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The `q` quantile (0 ≤ q ≤ 1) of `samples`, interpolating linearly between
/// closest ranks. 0 for an empty sample.
inline double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] +
         (samples[hi] - samples[lo]) * (rank - static_cast<double>(lo));
}

inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

/// The machine a run shares with other tenants is slowed by them most of
/// the time and runs at full speed only now and then; they only ever slow
/// a measurement. Figures aggregated from many sub-measurements of one run
/// therefore report its quiet end: the 5th percentile of times (QuietLow)
/// and the 95th of rates (QuietHigh). A change to the program moves every
/// sub-measurement and so moves these too; interference that spares one
/// sub-measurement in twenty does not.
inline double QuietLow(std::vector<double> times) {
  return Quantile(std::move(times), 0.05);
}
inline double QuietHigh(std::vector<double> rates) {
  return Quantile(std::move(rates), 0.95);
}

/// The least of repeated timings of the same work: interference from
/// other tenants only ever adds to a timing, so the minimum is the work's
/// own cost. 0 for an empty sample.
inline double Floor(const std::vector<double>& times) {
  return times.empty() ? 0 : *std::min_element(times.begin(), times.end());
}

/// The Floor of each piece of repeated work, named by a key. The harness
/// keys each question by the session state it is asked in: a session's
/// transcript is a function of its state alone, so every question asked in
/// one state is the same work, whichever goal or play it belongs to. Many
/// goals share a transcript's first answers, so the dearest (early)
/// questions are timed many times in a run.
class FloorMap {
 public:
  void Add(const std::string& key, double value, size_t count = 1) {
    auto [it, inserted] = floors_.try_emplace(key, Entry{value, count});
    if (!inserted) {
      it->second.value = std::min(it->second.value, value);
      it->second.count += count;
    }
  }
  void Merge(const FloorMap& other) {
    for (const auto& [key, entry] : other.floors_) {
      Add(key, entry.value, entry.count);
    }
  }
  /// The least time of `key`'s work; 0 if it was never timed.
  double Floor(const std::string& key) const {
    const auto it = floors_.find(key);
    return it == floors_.end() ? 0 : it->second.value;
  }
  /// How many times `key`'s work was timed.
  size_t Count(const std::string& key) const {
    const auto it = floors_.find(key);
    return it == floors_.end() ? 0 : it->second.count;
  }
  size_t size() const { return floors_.size(); }

 private:
  struct Entry {
    double value;
    size_t count;
  };
  std::unordered_map<std::string, Entry> floors_;
};

/// Latency quantiles of a long stream, taken per block of `block_size`
/// consecutive samples and summarized across blocks by QuietLow: the p50
/// reported is the 5th percentile of the blocks' p50s, and likewise for
/// p90. A block holds at least kMinBlock samples, so its p90 has at least
/// ten beyond it. Memory is one block plus two numbers per block, so the
/// harness's share of the serving process's peak RSS does not grow with
/// the samples a run takes. Block size 0 makes the whole stream one block:
/// plain p50 and p90 over every sample.
class BlockQuantiles {
 public:
  static constexpr size_t kMinBlock = 100;

  explicit BlockQuantiles(size_t block_size = kMinBlock)
      : block_size_(block_size == 0 ? 0 : std::max(block_size, kMinBlock)) {}

  void Add(double value) {
    block_.push_back(value);
    if (block_size_ == 0 || block_.size() < block_size_) return;
    p50s_.push_back(Quantile(block_, 0.5));
    p90s_.push_back(Quantile(block_, 0.9));
    block_.clear();
  }

  /// Adds `other`'s full blocks; its partial block is dropped, unless the
  /// whole stream is one block.
  void Merge(const BlockQuantiles& other) {
    p50s_.insert(p50s_.end(), other.p50s_.begin(), other.p50s_.end());
    p90s_.insert(p90s_.end(), other.p90s_.begin(), other.p90s_.end());
    if (block_size_ == 0) {
      block_.insert(block_.end(), other.block_.begin(), other.block_.end());
    }
  }

  /// QuietLow of the block p50s / p90s; an error naming `what` when no
  /// block of at least kMinBlock samples was completed.
  jim::util::StatusOr<double> P50(const std::string& what) const {
    return Summarize(0.5, what);
  }
  jim::util::StatusOr<double> P90(const std::string& what) const {
    return Summarize(0.9, what);
  }

 private:
  jim::util::StatusOr<double> Summarize(double q,
                                        const std::string& what) const {
    if (block_size_ == 0 && block_.size() >= kMinBlock) {
      return Quantile(block_, q);
    }
    const std::vector<double>& values = q == 0.5 ? p50s_ : p90s_;
    if (values.empty()) {
      return jim::util::FailedPreconditionError(jim::util::StrFormat(
          "%s: fewer than %zu samples, so no p90 with ten beyond it",
          what.c_str(), kMinBlock));
    }
    return QuietLow(values);
  }

  size_t block_size_;
  std::vector<double> block_;
  std::vector<double> p50s_;
  std::vector<double> p90s_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_
