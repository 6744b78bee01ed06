#ifndef JIM_TESTS_SUPPORT_FAULT_ENV_H_
#define JIM_TESTS_SUPPORT_FAULT_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "storage/env.h"
#include "util/status.h"

namespace jim::storage {

/// A deterministic fault-injecting Env for crash-recovery testing. A
/// tests-only instrument: it lives in the jim_test_support library, which
/// only the test binaries link, never in libjim.
///
/// Every Env operation is counted and labeled (the *schedule*), so a test
/// can first run a storage operation cleanly to learn its syscall schedule,
/// then re-run it with a fault armed at each index in turn — exhaustive
/// crash-point enumeration instead of sampling.
///
/// Writes are virtual: they mutate an in-memory filesystem model (inodes +
/// a volatile namespace + a durable namespace), never the real disk. The
/// model tracks exactly what POSIX guarantees would survive a power cut:
///   - appended bytes are durable only up to the last WritableFile::Sync
///     watermark (the fsync barrier actually issued);
///   - creations, renames, and removals are durable only once the parent
///     directory was SyncDirectory'd after them.
/// ReplayDurableInto materializes that durable state into a real directory
/// (through the base env), where recovery code can be exercised for real.
///
/// Reads (ReadFileToString / MapReadOnly / FileSize / ListDirectory) serve
/// model files first and fall through to the base env, so the same wrapper
/// also drives read-side faults — refused mmap (forcing the heap-reader
/// degradation path), short reads, and errno-classified failures — against
/// real on-disk files.
///
/// Faults:
///   FailAtOp(n, status)    operation #n returns `status`; later ops run
///                          normally (a transient blip — retry fodder).
///   CrashAtOp(n)           operation #n and every later one fail with
///                          kInternal "simulated power loss" and mutate
///                          nothing: the process is dead, only the durable
///                          prefix of the schedule survives.
///   ShortReadAtOp(n, k)    if operation #n is a whole-file read, only the
///                          first k bytes come back (a truncated-read
///                          image reaching the parser).
///   set_torn_write_bytes   when the faulted operation is an Append, this
///                          many bytes land before the failure — a write
///                          torn at an arbitrary byte boundary.
///   set_refuse_mmap        every MapReadOnly fails (kUnavailable), no
///                          matter the index — the degradation trigger.
///
/// Not thread-safe; fault schedules are a single-threaded test instrument.
class FaultInjectionEnv final : public Env {
 public:
  /// Wraps `base` (nullptr → DefaultEnv()).
  explicit FaultInjectionEnv(Env* base = nullptr);
  ~FaultInjectionEnv() override;

  // --- fault arming ------------------------------------------------------
  void FailAtOp(uint64_t op, util::Status error);
  void CrashAtOp(uint64_t op);
  void ShortReadAtOp(uint64_t op, size_t keep_bytes);
  void set_torn_write_bytes(size_t bytes) { torn_write_bytes_ = bytes; }
  void set_refuse_mmap(bool refuse) { refuse_mmap_ = refuse; }
  void ClearFaults();

  // --- introspection -----------------------------------------------------
  /// Operations seen so far (== the index the *next* operation will get).
  uint64_t op_count() const { return schedule_.size(); }
  /// One human-readable label per operation, in execution order.
  const std::vector<std::string>& schedule() const { return schedule_; }
  /// True once a CrashAtOp fault has fired: the model is frozen and every
  /// operation fails.
  bool dead() const { return dead_; }
  /// Backoff sleeps requested through the injectable clock (never actually
  /// slept — retry tests take no wall time).
  uint64_t sleeps_recorded() const { return sleeps_recorded_; }
  uint64_t micros_slept() const { return micros_slept_; }

  // --- power-cut recovery ------------------------------------------------
  enum class ReplayMode {
    /// Only fsync-barrier-durable state survives: data to its last Sync
    /// watermark, directory entries only if SyncDirectory'd. The
    /// worst-case (and guaranteed-reachable) post-crash filesystem.
    kStrict,
    /// The kernel happened to flush all metadata before the cut: the
    /// volatile namespace survives, but file *data* still only to its
    /// Sync watermark. The other reachable extreme; recovery must handle
    /// both (and everything between, which torn tails approximate).
    kMetadataFlushed,
  };

  /// Materializes the surviving filesystem state for the virtual directory
  /// `virtual_root` into the real directory `target_dir` (created through
  /// the base env). With `torn_seed` != 0, each file additionally keeps a
  /// seed-deterministic prefix of its unsynced tail — the torn-final-write
  /// images a real power cut produces.
  util::Status ReplayDurableInto(const std::string& virtual_root,
                                 const std::string& target_dir,
                                 ReplayMode mode,
                                 uint64_t torn_seed = 0) const;

  // --- Env ---------------------------------------------------------------
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
  friend class FaultWritableFile;

  struct Inode {
    std::string content;
    /// Bytes guaranteed on the platter: prefix covered by the last Sync.
    size_t synced = 0;
  };
  enum class MetaOpKind { kLink, kRename, kUnlink };
  /// A directory-entry mutation not yet covered by a SyncDirectory.
  struct PendingMetaOp {
    MetaOpKind kind;
    std::string dir;   // parent whose fsync flushes this op
    std::string from;  // kRename only
    std::string path;  // the entry created/target-of-rename/removed
    size_t inode = 0;  // kLink/kRename
  };

  /// Counts + labels the operation and decides its fate. Returns OK to
  /// proceed; a fault status to fail. `torn_bytes` (Appends only) is how
  /// many bytes still land before the failure; `short_read_keep` is set
  /// when a short read should be served instead of an error.
  util::Status BeginOp(const std::string& label, size_t* torn_bytes,
                       std::optional<size_t>* short_read_keep);
  util::Status DeadStatus() const;

  Env* base_;
  std::vector<std::string> schedule_;
  bool dead_ = false;
  bool refuse_mmap_ = false;
  size_t torn_write_bytes_ = 0;
  uint64_t sleeps_recorded_ = 0;
  uint64_t micros_slept_ = 0;

  struct ArmedFault {
    uint64_t op = 0;
    enum class Kind { kError, kCrash, kShortRead } kind = Kind::kError;
    util::Status error;
    size_t short_read_keep = 0;
  };
  std::vector<ArmedFault> faults_;

  std::vector<Inode> inodes_;
  /// Live (process-visible) name → inode.
  std::map<std::string, size_t> volatile_ns_;
  /// Power-cut-durable name → inode (entries whose metadata op was
  /// directory-fsync'd).
  std::map<std::string, size_t> durable_ns_;
  std::vector<PendingMetaOp> pending_;
};

}  // namespace jim::storage

#endif  // JIM_TESTS_SUPPORT_FAULT_ENV_H_
