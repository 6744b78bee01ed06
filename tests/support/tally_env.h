#ifndef JIM_TESTS_SUPPORT_TALLY_ENV_H_
#define JIM_TESTS_SUPPORT_TALLY_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/env.h"
#include "util/status.h"

namespace jim::storage {

/// Operations and bytes crossing the storage seam, as one plain value.
struct StorageCounts {
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

/// The storage.* counters storage::MetricsEnv mirrors into the process-wide
/// obs registry, in the same shape. The registry keeps no backoff total, so
/// micros_slept reads 0.
StorageCounts RegistryStorageCounts();

/// Env decorator that tallies every operation and byte crossing the seam,
/// then forwards to the wrapped backend unchanged. A tests-only instrument
/// (it lives in jim_test_support, like FaultInjectionEnv): over a
/// FaultInjectionEnv, TallyEnv(&fault_env) counts each *attempted* op,
/// including the ones the fault schedule fails, and the backoff sleeps
/// RetryWithBackoff takes between attempts, so a suite can assert exact
/// retry and attempt counts. Not thread-safe.
class TallyEnv final : public Env {
 public:
  /// Wraps `base`; nullptr wraps the process-wide DefaultEnv().
  explicit TallyEnv(Env* base = nullptr);

  const StorageCounts& counts() const { return counts_; }
  void ResetCounts() { counts_ = StorageCounts(); }

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
  friend class TallyWritableFile;

  void CountFailure(const util::Status& status) {
    if (!status.ok()) ++counts_.failures;
  }

  Env* base_;
  StorageCounts counts_;
};

}  // namespace jim::storage

#endif  // JIM_TESTS_SUPPORT_TALLY_ENV_H_
