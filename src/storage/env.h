#ifndef JIM_STORAGE_ENV_H_
#define JIM_STORAGE_ENV_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace jim::storage {

/// The storage tier's filesystem seam. Every byte the JIMC writer and the
/// mapped reader move to or from disk goes through one of these virtual
/// calls — format.cc, store_writer.cc and mapped_store.cc contain no direct
/// syscalls or stream objects (tools/lint_determinism.py's raw-io rule
/// enforces this). That indirection is what makes the durability story
/// *testable*: the tests' FaultInjectionEnv (tests/support/fault_env.h) can
/// fail the Nth operation, tear a write at any byte boundary, refuse mmap,
/// or cut the power and replay only the durable prefix, while the default
/// PosixEnv preserves the original behavior byte-for-byte.
///
/// Every failure is a typed util::Status carrying errno/strerror detail.
/// The code tells the caller what to do about it:
///   kNotFound           the path does not exist
///   kUnavailable        transient (EINTR/EAGAIN/EBUSY/EMFILE/ENFILE) —
///                       RetryWithBackoff retries exactly this code
///   kResourceExhausted  out of space/quota (ENOSPC/EDQUOT) — not retried
///   kInvalidArgument    the file itself is unusable (e.g. empty where a
///                       mapping was requested)
///   kUnimplemented      the host lacks the primitive (e.g. no mmap)
///   kInternal           everything else, with the errno named

/// A sequential append-only file handle. Close() is idempotent; an
/// unclosed handle is closed (without syncing) on destruction.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual util::Status Append(const void* data, size_t size) = 0;
  util::Status Append(std::string_view data) {
    return Append(data.data(), data.size());
  }
  /// Flushes user-space buffers and fsyncs the file data to stable storage.
  virtual util::Status Sync() = 0;
  virtual util::Status Close() = 0;
  virtual const std::string& path() const = 0;
};

/// A whole-file read-only view: either a zero-copy mmap or a heap copy with
/// identical semantics (the graceful-degradation fallback). Unmapped/freed
/// on destruction.
class ReadRegion {
 public:
  virtual ~ReadRegion() = default;

  virtual const uint8_t* data() const = 0;
  virtual size_t size() const = 0;
  /// True for an actual mapping (shared page cache), false for a heap copy.
  virtual bool zero_copy() const = 0;
};

class Env {
 public:
  virtual ~Env() = default;

  /// Creates (or truncates) `path` for sequential writing.
  virtual util::StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) = 0;
  /// Reads all of `path` into memory.
  virtual util::StatusOr<std::string> ReadFileToString(
      const std::string& path) = 0;
  /// Maps all of `path` read-only. kUnimplemented where the host has no
  /// mmap; kInvalidArgument for an empty file (nothing to map). Callers
  /// wanting graceful degradation fall back to ReadFileToString.
  virtual util::StatusOr<std::unique_ptr<ReadRegion>> MapReadOnly(
      const std::string& path) = 0;
  virtual util::StatusOr<uint64_t> FileSize(const std::string& path) = 0;
  /// Renames `from` over `to`, replacing an existing target (atomic on
  /// POSIX). Unlike the atomic-persist recipe below, no cleanup of `from`
  /// happens on failure.
  virtual util::Status RenameReplacing(const std::string& from,
                                       const std::string& to) = 0;
  /// fsyncs a directory entry so renames/creations/removals under it
  /// survive a power cut. No-op where unsupported.
  virtual util::Status SyncDirectory(const std::string& dir) = 0;
  virtual util::StatusOr<std::vector<std::string>> ListDirectory(
      const std::string& dir) = 0;
  virtual util::Status RemoveFile(const std::string& path) = 0;
  virtual util::Status CreateDirectories(const std::string& dir) = 0;
  /// The injectable clock behind RetryWithBackoff: PosixEnv sleeps, the
  /// tests' FaultInjectionEnv only records, so retry tests take no wall
  /// time.
  virtual void SleepForMicros(uint64_t micros) = 0;
};

/// The process-wide PosixEnv singleton (heap-reader semantics off-POSIX).
/// Every storage entry point taking `Env* env = nullptr` resolves nullptr
/// to this.
Env* DefaultEnv();

/// Wraps an in-memory file copy in the ReadRegion interface (zero_copy() ==
/// false) — the graceful-degradation fallback when MapReadOnly refuses.
std::unique_ptr<ReadRegion> NewHeapRegion(std::string contents);

/// `path` up to its last '/', or "." — the directory whose entry must be
/// fsync'd for `path`'s rename to be durable.
std::string ParentDirectory(const std::string& path);

/// Bounded retry for transient-classified I/O errors. `attempt` runs up to
/// `max_attempts` times; a kUnavailable result sleeps the current backoff
/// (growing by `backoff_multiplier` each round, through env.SleepForMicros)
/// and retries. Any other status — OK or a non-transient error — returns
/// immediately.
struct RetryPolicy {
  int max_attempts = 3;
  uint64_t initial_backoff_micros = 100;
  uint64_t backoff_multiplier = 8;
};

util::Status RetryWithBackoff(Env& env, const RetryPolicy& policy,
                              const std::function<util::Status()>& attempt);

/// The atomic-persist recipe, shared by StoreWriter and the manifest
/// writer so the crash-safety-critical sequencing lives in exactly one
/// place: `write` streams the bytes into `path`.tmp, which is then
/// fsync'd, closed, renamed over the target, and the parent directory
/// entry fsync'd — a crash never leaves a half-written or lost file under
/// the final name. Any failure (from `write` or the file) cleans the tmp
/// file up (best effort) and is returned.
util::Status WriteFileAtomicallyWith(
    Env& env, const std::string& path,
    const std::function<util::Status(WritableFile&)>& write);

/// Convenience wrapper for small fully-resident files (catalog manifests).
util::Status WriteFileAtomically(Env& env, const std::string& path,
                                 const std::string& contents);

}  // namespace jim::storage

#endif  // JIM_STORAGE_ENV_H_
