#ifndef JIM_STORAGE_METRICS_ENV_H_
#define JIM_STORAGE_METRICS_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/env.h"

namespace jim::storage {

/// Env decorator that counts every operation and byte crossing the seam,
/// then forwards to the wrapped backend unchanged. Two sinks:
///   - a local always-on atomic tally (`counts()`), cheap enough to leave
///     permanently attached in tests — this is what gives fault-injection
///     suites exact retry/attempt assertions;
///   - the process-wide obs registry ("storage.*" counters), mirrored only
///     while obs::MetricsEnabled(), so `jim_cli --metrics-out` snapshots
///     include the storage tier.
/// Composes freely: over the tests' FaultInjectionEnv
/// (tests/support/fault_env.h), MetricsEnv(&fault_env) counts each
/// *attempted* op, including the ones the fault schedule fails, and counts
/// the backoff sleeps RetryWithBackoff takes between attempts — retries
/// become an observable number instead of an article of faith. Thread-safe
/// to the same degree as the wrapped Env (the tallies themselves are
/// atomic).
class MetricsEnv final : public Env {
 public:
  /// Plain-value snapshot of the local tally (see counts()).
  struct Counts {
    uint64_t creates = 0;       ///< NewWritableFile calls.
    uint64_t appends = 0;       ///< WritableFile::Append calls.
    uint64_t append_bytes = 0;  ///< Bytes passed to Append.
    uint64_t fsyncs = 0;        ///< WritableFile::Sync calls.
    uint64_t closes = 0;        ///< WritableFile::Close calls.
    uint64_t reads = 0;         ///< ReadFileToString calls.
    uint64_t read_bytes = 0;    ///< Bytes returned by successful reads.
    uint64_t mmaps = 0;         ///< MapReadOnly calls.
    uint64_t mmap_bytes = 0;    ///< Bytes in successfully mapped regions.
    uint64_t stats = 0;         ///< FileSize calls.
    uint64_t renames = 0;       ///< RenameReplacing calls.
    uint64_t dir_syncs = 0;     ///< SyncDirectory calls.
    uint64_t lists = 0;         ///< ListDirectory calls.
    uint64_t removes = 0;       ///< RemoveFile calls.
    uint64_t mkdirs = 0;        ///< CreateDirectories calls.
    uint64_t sleeps = 0;        ///< SleepForMicros calls == retries taken.
    uint64_t micros_slept = 0;  ///< Total backoff requested.
    uint64_t failures = 0;      ///< Ops that returned a non-OK Status.

    /// Total operations counted (bytes/micros tallies excluded).
    uint64_t ops() const {
      return creates + appends + fsyncs + closes + reads + mmaps + stats +
             renames + dir_syncs + lists + removes + mkdirs + sleeps;
    }
  };

  /// Wraps `base`; nullptr wraps the process-wide DefaultEnv().
  explicit MetricsEnv(Env* base = nullptr);

  Counts counts() const;
  void ResetCounts();

  util::StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  util::StatusOr<std::string> ReadFileToString(
      const std::string& path) override;
  util::StatusOr<std::unique_ptr<ReadRegion>> MapReadOnly(
      const std::string& path) override;
  util::StatusOr<uint64_t> FileSize(const std::string& path) override;
  util::Status RenameReplacing(const std::string& from,
                               const std::string& to) override;
  util::Status SyncDirectory(const std::string& dir) override;
  util::StatusOr<std::vector<std::string>> ListDirectory(
      const std::string& dir) override;
  util::Status RemoveFile(const std::string& path) override;
  util::Status CreateDirectories(const std::string& dir) override;
  void SleepForMicros(uint64_t micros) override;

 private:
  friend class MetricsWritableFile;

  struct AtomicCounts {
    std::atomic<uint64_t> creates{0};
    std::atomic<uint64_t> appends{0};
    std::atomic<uint64_t> append_bytes{0};
    std::atomic<uint64_t> fsyncs{0};
    std::atomic<uint64_t> closes{0};
    std::atomic<uint64_t> reads{0};
    std::atomic<uint64_t> read_bytes{0};
    std::atomic<uint64_t> mmaps{0};
    std::atomic<uint64_t> mmap_bytes{0};
    std::atomic<uint64_t> stats{0};
    std::atomic<uint64_t> renames{0};
    std::atomic<uint64_t> dir_syncs{0};
    std::atomic<uint64_t> lists{0};
    std::atomic<uint64_t> removes{0};
    std::atomic<uint64_t> mkdirs{0};
    std::atomic<uint64_t> sleeps{0};
    std::atomic<uint64_t> micros_slept{0};
    std::atomic<uint64_t> failures{0};
  };

  void CountFailure(const util::Status& status);

  Env* base_;
  AtomicCounts counts_;
};

}  // namespace jim::storage

#endif  // JIM_STORAGE_METRICS_ENV_H_
