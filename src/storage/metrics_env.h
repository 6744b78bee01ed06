#ifndef JIM_STORAGE_METRICS_ENV_H_
#define JIM_STORAGE_METRICS_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/env.h"

namespace jim::storage {

/// Env decorator that counts every operation and byte crossing the seam
/// into the process-wide obs registry ("storage.*" counters), then forwards
/// to the wrapped backend unchanged. The counters move only while
/// obs::MetricsEnabled(), so `jim_cli --metrics-out` snapshots include the
/// storage tier. Each *attempted* op counts, including a failed one (and
/// storage.failures counts those), and so does each backoff sleep
/// RetryWithBackoff takes between attempts. Thread-safe to the same degree
/// as the wrapped Env.
class MetricsEnv final : public Env {
 public:
  /// Wraps `base`; nullptr wraps the process-wide DefaultEnv().
  explicit MetricsEnv(Env* base = nullptr);

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
  Env* base_;
};

}  // namespace jim::storage

#endif  // JIM_STORAGE_METRICS_ENV_H_
