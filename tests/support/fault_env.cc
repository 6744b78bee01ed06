#include "support/fault_env.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace jim::storage {

namespace {

/// Heap-copy view of a model file (the fault env has no real pages to map).
class ModelRegion final : public ReadRegion {
 public:
  explicit ModelRegion(std::string bytes) : bytes_(std::move(bytes)) {}
  const uint8_t* data() const override {
    return reinterpret_cast<const uint8_t*>(bytes_.data());
  }
  size_t size() const override { return bytes_.size(); }
  bool zero_copy() const override { return false; }

 private:
  std::string bytes_;
};

/// splitmix64: the seed-deterministic stream behind torn-tail lengths.
uint64_t NextRandom(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

/// The writable-file side of the model: appends grow the inode, Sync moves
/// the durability watermark, and every call is a countable (faultable)
/// operation of the owning env.
class FaultWritableFile final : public WritableFile {
 public:
  FaultWritableFile(FaultInjectionEnv* env, size_t inode, std::string path)
      : env_(env), inode_(inode), path_(std::move(path)) {}

  util::Status Append(const void* data, size_t size) override {
    size_t torn = 0;
    const util::Status status = env_->BeginOp(
        "append " + path_ + " (" + std::to_string(size) + " B)", &torn,
        nullptr);
    FaultInjectionEnv::Inode& inode = env_->inodes_[inode_];
    if (!status.ok()) {
      // The moment of failure may still land a prefix — a write torn at an
      // arbitrary byte boundary.
      if (torn > 0 && !closed_) {
        inode.content.append(static_cast<const char*>(data),
                             std::min(torn, size));
      }
      return status;
    }
    if (closed_) {
      return util::InternalError("write to closed file " + path_);
    }
    inode.content.append(static_cast<const char*>(data), size);
    return util::OkStatus();
  }

  util::Status Sync() override {
    RETURN_IF_ERROR(env_->BeginOp("fsync " + path_, nullptr, nullptr));
    if (closed_) {
      return util::InternalError("fsync on closed file " + path_);
    }
    FaultInjectionEnv::Inode& inode = env_->inodes_[inode_];
    inode.synced = inode.content.size();
    return util::OkStatus();
  }

  util::Status Close() override {
    if (closed_) return util::OkStatus();
    RETURN_IF_ERROR(env_->BeginOp("close " + path_, nullptr, nullptr));
    closed_ = true;
    return util::OkStatus();
  }

  const std::string& path() const override { return path_; }

 private:
  FaultInjectionEnv* env_;
  size_t inode_;
  std::string path_;
  bool closed_ = false;
};

FaultInjectionEnv::FaultInjectionEnv(Env* base)
    : base_(base != nullptr ? base : DefaultEnv()) {}

FaultInjectionEnv::~FaultInjectionEnv() = default;

void FaultInjectionEnv::FailAtOp(uint64_t op, util::Status error) {
  ArmedFault fault;
  fault.op = op;
  fault.kind = ArmedFault::Kind::kError;
  fault.error = std::move(error);
  faults_.push_back(std::move(fault));
}

void FaultInjectionEnv::CrashAtOp(uint64_t op) {
  ArmedFault fault;
  fault.op = op;
  fault.kind = ArmedFault::Kind::kCrash;
  faults_.push_back(std::move(fault));
}

void FaultInjectionEnv::ShortReadAtOp(uint64_t op, size_t keep_bytes) {
  ArmedFault fault;
  fault.op = op;
  fault.kind = ArmedFault::Kind::kShortRead;
  fault.short_read_keep = keep_bytes;
  faults_.push_back(std::move(fault));
}

void FaultInjectionEnv::ClearFaults() { faults_.clear(); }

util::Status FaultInjectionEnv::DeadStatus() const {
  return util::InternalError(
      "simulated power loss: fault-injection environment is dead");
}

util::Status FaultInjectionEnv::BeginOp(
    const std::string& label, size_t* torn_bytes,
    std::optional<size_t>* short_read_keep) {
  const uint64_t index = schedule_.size();
  schedule_.push_back(label);
  if (dead_) return DeadStatus();
  for (auto it = faults_.begin(); it != faults_.end(); ++it) {
    if (it->op != index) continue;
    switch (it->kind) {
      case ArmedFault::Kind::kError: {
        const util::Status error = it->error;
        if (torn_bytes != nullptr) *torn_bytes = torn_write_bytes_;
        faults_.erase(it);  // one-shot: a retry of the op succeeds
        return error;
      }
      case ArmedFault::Kind::kCrash:
        dead_ = true;
        if (torn_bytes != nullptr) *torn_bytes = torn_write_bytes_;
        return DeadStatus();
      case ArmedFault::Kind::kShortRead:
        if (short_read_keep != nullptr) *short_read_keep = it->short_read_keep;
        faults_.erase(it);
        return util::OkStatus();
    }
  }
  return util::OkStatus();
}

util::StatusOr<std::unique_ptr<WritableFile>>
FaultInjectionEnv::NewWritableFile(const std::string& path) {
  RETURN_IF_ERROR(BeginOp("create " + path, nullptr, nullptr));
  // O_TRUNC semantics: the name now points at a fresh empty inode. Any old
  // inode stays reachable through the durable namespace until the
  // directory-entry change is fsync'd.
  const size_t inode = inodes_.size();
  inodes_.emplace_back();
  volatile_ns_[path] = inode;
  PendingMetaOp op;
  op.kind = MetaOpKind::kLink;
  op.dir = ParentDirectory(path);
  op.path = path;
  op.inode = inode;
  pending_.push_back(std::move(op));
  return std::unique_ptr<WritableFile>(
      new FaultWritableFile(this, inode, path));
}

util::StatusOr<std::string> FaultInjectionEnv::ReadFileToString(
    const std::string& path) {
  std::optional<size_t> short_keep;
  RETURN_IF_ERROR(BeginOp("read " + path, nullptr, &short_keep));
  std::string contents;
  const auto it = volatile_ns_.find(path);
  if (it != volatile_ns_.end()) {
    contents = inodes_[it->second].content;
  } else {
    ASSIGN_OR_RETURN(contents, base_->ReadFileToString(path));
  }
  if (short_keep.has_value() && contents.size() > *short_keep) {
    contents.resize(*short_keep);
  }
  return contents;
}

util::StatusOr<std::unique_ptr<ReadRegion>> FaultInjectionEnv::MapReadOnly(
    const std::string& path) {
  RETURN_IF_ERROR(BeginOp("mmap " + path, nullptr, nullptr));
  if (refuse_mmap_) {
    return util::UnavailableError("injected mmap refusal on " + path);
  }
  const auto it = volatile_ns_.find(path);
  if (it == volatile_ns_.end()) return base_->MapReadOnly(path);
  const std::string& content = inodes_[it->second].content;
  if (content.empty()) {
    return util::InvalidArgumentError("cannot map " + path + ": empty file");
  }
  return std::unique_ptr<ReadRegion>(new ModelRegion(content));
}

util::StatusOr<uint64_t> FaultInjectionEnv::FileSize(
    const std::string& path) {
  RETURN_IF_ERROR(BeginOp("stat " + path, nullptr, nullptr));
  const auto it = volatile_ns_.find(path);
  if (it != volatile_ns_.end()) {
    return static_cast<uint64_t>(inodes_[it->second].content.size());
  }
  return base_->FileSize(path);
}

util::Status FaultInjectionEnv::RenameReplacing(const std::string& from,
                                                const std::string& to) {
  RETURN_IF_ERROR(BeginOp("rename " + from + " -> " + to, nullptr, nullptr));
  const auto it = volatile_ns_.find(from);
  if (it == volatile_ns_.end()) {
    // Not a model file: the caller is renaming something real.
    return base_->RenameReplacing(from, to);
  }
  const size_t inode = it->second;
  volatile_ns_.erase(it);
  volatile_ns_[to] = inode;
  PendingMetaOp op;
  op.kind = MetaOpKind::kRename;
  op.dir = ParentDirectory(to);
  op.from = from;
  op.path = to;
  op.inode = inode;
  pending_.push_back(std::move(op));
  return util::OkStatus();
}

util::Status FaultInjectionEnv::SyncDirectory(const std::string& dir) {
  RETURN_IF_ERROR(BeginOp("syncdir " + dir, nullptr, nullptr));
  // The fsync barrier: every pending directory-entry mutation under `dir`
  // becomes durable, in the order it was issued.
  auto cursor = pending_.begin();
  while (cursor != pending_.end()) {
    if (cursor->dir != dir) {
      ++cursor;
      continue;
    }
    switch (cursor->kind) {
      case MetaOpKind::kLink:
        durable_ns_[cursor->path] = cursor->inode;
        break;
      case MetaOpKind::kRename:
        durable_ns_.erase(cursor->from);
        durable_ns_[cursor->path] = cursor->inode;
        break;
      case MetaOpKind::kUnlink:
        durable_ns_.erase(cursor->path);
        break;
    }
    cursor = pending_.erase(cursor);
  }
  return util::OkStatus();
}

util::StatusOr<std::vector<std::string>> FaultInjectionEnv::ListDirectory(
    const std::string& dir) {
  RETURN_IF_ERROR(BeginOp("list " + dir, nullptr, nullptr));
  // Model entries under `dir`, merged with whatever really exists there (a
  // missing real directory just contributes nothing — the model is the
  // source of truth for virtual directories).
  std::vector<std::string> files;
  const auto base_listing = base_->ListDirectory(dir);
  if (base_listing.ok()) files = *base_listing;
  for (const auto& [name, inode] : volatile_ns_) {
    (void)inode;
    if (ParentDirectory(name) == dir) {
      files.push_back(name.substr(dir.size() + 1));
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

util::Status FaultInjectionEnv::RemoveFile(const std::string& path) {
  RETURN_IF_ERROR(BeginOp("remove " + path, nullptr, nullptr));
  const auto it = volatile_ns_.find(path);
  if (it == volatile_ns_.end()) return base_->RemoveFile(path);
  volatile_ns_.erase(it);
  PendingMetaOp op;
  op.kind = MetaOpKind::kUnlink;
  op.dir = ParentDirectory(path);
  op.path = path;
  pending_.push_back(std::move(op));
  return util::OkStatus();
}

util::Status FaultInjectionEnv::CreateDirectories(const std::string& dir) {
  RETURN_IF_ERROR(BeginOp("mkdir " + dir, nullptr, nullptr));
  // Virtual directories need no state: ListDirectory serves them from the
  // namespace, and files appear the moment they are created.
  return util::OkStatus();
}

void FaultInjectionEnv::SleepForMicros(uint64_t micros) {
  // The injectable clock: record the backoff, never actually sleep (and
  // never count it as a faultable operation — a sleep cannot fail).
  ++sleeps_recorded_;
  micros_slept_ += micros;
}

util::Status FaultInjectionEnv::ReplayDurableInto(
    const std::string& virtual_root, const std::string& target_dir,
    ReplayMode mode, uint64_t torn_seed) const {
  RETURN_IF_ERROR(base_->CreateDirectories(target_dir));
  const std::map<std::string, size_t>& ns =
      mode == ReplayMode::kStrict ? durable_ns_ : volatile_ns_;
  const std::string prefix = virtual_root + "/";
  uint64_t rng = torn_seed;
  for (const auto& [name, inode_id] : ns) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    const Inode& inode = inodes_[inode_id];
    // File data survives to its fsync watermark in either mode; with a torn
    // seed, a deterministic prefix of the unsynced tail survives too.
    std::string content = inode.content.substr(0, inode.synced);
    const size_t unsynced = inode.content.size() - inode.synced;
    if (torn_seed != 0 && unsynced > 0) {
      content += inode.content.substr(
          inode.synced,
          static_cast<size_t>(NextRandom(rng) % (unsynced + 1)));
    }
    const std::string out_path = target_dir + "/" + name.substr(prefix.size());
    if (name.find('/', prefix.size()) != std::string::npos) {
      RETURN_IF_ERROR(base_->CreateDirectories(ParentDirectory(out_path)));
    }
    auto file = base_->NewWritableFile(out_path);
    if (!file.ok()) return file.status();
    RETURN_IF_ERROR((*file)->Append(content));
    RETURN_IF_ERROR((*file)->Close());
  }
  return util::OkStatus();
}

}  // namespace jim::storage
