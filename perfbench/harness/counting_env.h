#ifndef PERFBENCH_HARNESS_COUNTING_ENV_H_
#define PERFBENCH_HARNESS_COUNTING_ENV_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/env.h"

namespace perfbench {

/// A storage::Env decorator, built only on the public Env interface, that
/// counts every operation and byte crossing it and times the operations of
/// the checkpoint write path, then forwards to the wrapped Env.
///
/// Thread-safe: the tallies are atomics, and the write-path time is also
/// added to a per-thread total (ThreadWriteNanos) so a caller can attribute
/// the I/O of a call it made on its own thread.
class CountingEnv final : public jim::storage::Env {
 public:
  struct Counts {
    uint64_t creates = 0;       ///< NewWritableFile calls
    uint64_t appends = 0;       ///< WritableFile::Append calls
    uint64_t append_bytes = 0;  ///< bytes passed to Append
    uint64_t syncs = 0;         ///< WritableFile::Sync calls
    uint64_t closes = 0;        ///< WritableFile::Close calls
    uint64_t renames = 0;       ///< RenameReplacing calls
    uint64_t dir_syncs = 0;     ///< SyncDirectory calls
    uint64_t reads = 0;         ///< ReadFileToString calls
    uint64_t read_bytes = 0;    ///< bytes returned by ReadFileToString
    uint64_t maps = 0;          ///< MapReadOnly calls
    uint64_t mapped_bytes = 0;  ///< bytes in regions MapReadOnly returned
    uint64_t lists = 0;         ///< ListDirectory calls
    uint64_t removes = 0;       ///< RemoveFile calls
    /// Nanoseconds spent in create, append, sync, close, rename and
    /// directory sync: the checkpoint write path.
    int64_t write_nanos = 0;
  };

  /// Wraps `base`; nullptr wraps storage::DefaultEnv().
  explicit CountingEnv(jim::storage::Env* base = nullptr);

  Counts counts() const;

  /// Write-path nanoseconds spent on the calling thread, through any
  /// CountingEnv, since the thread started.
  static int64_t ThreadWriteNanos();

  jim::util::StatusOr<std::unique_ptr<jim::storage::WritableFile>>
  NewWritableFile(const std::string& path) override;
  jim::util::StatusOr<std::string> ReadFileToString(
      const std::string& path) override;
  jim::util::StatusOr<std::unique_ptr<jim::storage::ReadRegion>> MapReadOnly(
      const std::string& path) override;
  jim::util::StatusOr<uint64_t> FileSize(const std::string& path) override;
  jim::util::Status RenameReplacing(const std::string& from,
                                    const std::string& to) override;
  jim::util::Status SyncDirectory(const std::string& dir) override;
  jim::util::StatusOr<std::vector<std::string>> ListDirectory(
      const std::string& dir) override;
  jim::util::Status RemoveFile(const std::string& path) override;
  jim::util::Status CreateDirectories(const std::string& dir) override;
  void SleepForMicros(uint64_t micros) override;

 private:
  friend class CountingWritableFile;

  /// Adds the nanoseconds since `start` to the write-path totals.
  void AddWriteTime(int64_t start);

  jim::storage::Env* base_;
  std::atomic<uint64_t> creates_{0};
  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> append_bytes_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> closes_{0};
  std::atomic<uint64_t> renames_{0};
  std::atomic<uint64_t> dir_syncs_{0};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> read_bytes_{0};
  std::atomic<uint64_t> maps_{0};
  std::atomic<uint64_t> mapped_bytes_{0};
  std::atomic<uint64_t> lists_{0};
  std::atomic<uint64_t> removes_{0};
  std::atomic<int64_t> write_nanos_{0};
};

/// A storage::Env that keeps the files under one directory in process
/// memory and forwards every other path to a base Env: an in-process tmpfs
/// mounted at `dir`. Sync and SyncDirectory on it are no-ops, as on tmpfs.
///
/// The benchmark keeps its files inside its own checkout, which may sit on
/// a shared disk; there, checkpoint create/rename/fsync latency moved
/// identical runs by a factor of two. Holding the checkpoint directory in
/// memory keeps the daemon's whole persist sequence (encode, tmp file,
/// sync, close, rename, directory sync) running through the Env seam while
/// taking the device out of the timings; what a device would add is
/// reported as exact counts (syncs and renames per label).
class MemoryDirEnv final : public jim::storage::Env {
 public:
  /// Serves `dir` (no trailing '/'; empty serves nothing) from memory;
  /// nullptr base forwards to storage::DefaultEnv().
  explicit MemoryDirEnv(std::string dir, jim::storage::Env* base = nullptr);

  jim::util::StatusOr<std::unique_ptr<jim::storage::WritableFile>>
  NewWritableFile(const std::string& path) override;
  jim::util::StatusOr<std::string> ReadFileToString(
      const std::string& path) override;
  jim::util::StatusOr<std::unique_ptr<jim::storage::ReadRegion>> MapReadOnly(
      const std::string& path) override;
  jim::util::StatusOr<uint64_t> FileSize(const std::string& path) override;
  jim::util::Status RenameReplacing(const std::string& from,
                                    const std::string& to) override;
  jim::util::Status SyncDirectory(const std::string& dir) override;
  jim::util::StatusOr<std::vector<std::string>> ListDirectory(
      const std::string& dir) override;
  jim::util::Status RemoveFile(const std::string& path) override;
  jim::util::Status CreateDirectories(const std::string& dir) override;
  void SleepForMicros(uint64_t micros) override;

 private:
  friend class MemoryWritableFile;

  /// True for `dir` itself and every path below it.
  bool Owns(const std::string& path) const;
  void Store(const std::string& path, std::string contents);

  jim::storage::Env* base_;
  const std::string dir_;
  std::mutex mutex_;
  std::map<std::string, std::string> files_;  // guarded by mutex_
};

/// The filesystem type of `path` as statfs reports it ("tmpfs", "ext2/3/4",
/// ... or the hex magic for an unnamed type).
std::string FilesystemType(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COUNTING_ENV_H_
