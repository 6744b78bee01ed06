#include "harness/counting_env.h"

#include <sys/vfs.h>

#include <utility>

#include "harness/stats.h"
#include "util/string_util.h"

namespace perfbench {

namespace {

thread_local int64_t thread_write_nanos = 0;

void Bump(std::atomic<uint64_t>& cell, uint64_t n = 1) {
  cell.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace

class CountingWritableFile final : public jim::storage::WritableFile {
 public:
  CountingWritableFile(CountingEnv* env,
                       std::unique_ptr<jim::storage::WritableFile> base)
      : env_(env), base_(std::move(base)) {}

  jim::util::Status Append(const void* data, size_t size) override {
    const int64_t start = NowNanos();
    Bump(env_->appends_);
    Bump(env_->append_bytes_, size);
    jim::util::Status status = base_->Append(data, size);
    env_->AddWriteTime(start);
    return status;
  }

  jim::util::Status Sync() override {
    const int64_t start = NowNanos();
    Bump(env_->syncs_);
    jim::util::Status status = base_->Sync();
    env_->AddWriteTime(start);
    return status;
  }

  jim::util::Status Close() override {
    const int64_t start = NowNanos();
    Bump(env_->closes_);
    jim::util::Status status = base_->Close();
    env_->AddWriteTime(start);
    return status;
  }

  const std::string& path() const override { return base_->path(); }

 private:
  CountingEnv* env_;
  std::unique_ptr<jim::storage::WritableFile> base_;
};

CountingEnv::CountingEnv(jim::storage::Env* base)
    : base_(base != nullptr ? base : jim::storage::DefaultEnv()) {}

CountingEnv::Counts CountingEnv::counts() const {
  Counts out;
  out.creates = creates_.load(std::memory_order_relaxed);
  out.appends = appends_.load(std::memory_order_relaxed);
  out.append_bytes = append_bytes_.load(std::memory_order_relaxed);
  out.syncs = syncs_.load(std::memory_order_relaxed);
  out.closes = closes_.load(std::memory_order_relaxed);
  out.renames = renames_.load(std::memory_order_relaxed);
  out.dir_syncs = dir_syncs_.load(std::memory_order_relaxed);
  out.reads = reads_.load(std::memory_order_relaxed);
  out.read_bytes = read_bytes_.load(std::memory_order_relaxed);
  out.maps = maps_.load(std::memory_order_relaxed);
  out.mapped_bytes = mapped_bytes_.load(std::memory_order_relaxed);
  out.lists = lists_.load(std::memory_order_relaxed);
  out.removes = removes_.load(std::memory_order_relaxed);
  out.write_nanos = write_nanos_.load(std::memory_order_relaxed);
  return out;
}

int64_t CountingEnv::ThreadWriteNanos() { return thread_write_nanos; }

void CountingEnv::AddWriteTime(int64_t start) {
  const int64_t elapsed = NowNanos() - start;
  write_nanos_.fetch_add(elapsed, std::memory_order_relaxed);
  thread_write_nanos += elapsed;
}

jim::util::StatusOr<std::unique_ptr<jim::storage::WritableFile>>
CountingEnv::NewWritableFile(const std::string& path) {
  const int64_t start = NowNanos();
  Bump(creates_);
  auto file = base_->NewWritableFile(path);
  AddWriteTime(start);
  if (!file.ok()) return file.status();
  return std::unique_ptr<jim::storage::WritableFile>(
      new CountingWritableFile(this, std::move(file).value()));
}

jim::util::StatusOr<std::string> CountingEnv::ReadFileToString(
    const std::string& path) {
  Bump(reads_);
  auto contents = base_->ReadFileToString(path);
  if (contents.ok()) Bump(read_bytes_, contents->size());
  return contents;
}

jim::util::StatusOr<std::unique_ptr<jim::storage::ReadRegion>>
CountingEnv::MapReadOnly(const std::string& path) {
  Bump(maps_);
  auto region = base_->MapReadOnly(path);
  if (region.ok()) Bump(mapped_bytes_, (*region)->size());
  return region;
}

jim::util::StatusOr<uint64_t> CountingEnv::FileSize(const std::string& path) {
  return base_->FileSize(path);
}

jim::util::Status CountingEnv::RenameReplacing(const std::string& from,
                                               const std::string& to) {
  const int64_t start = NowNanos();
  Bump(renames_);
  jim::util::Status status = base_->RenameReplacing(from, to);
  AddWriteTime(start);
  return status;
}

jim::util::Status CountingEnv::SyncDirectory(const std::string& dir) {
  const int64_t start = NowNanos();
  Bump(dir_syncs_);
  jim::util::Status status = base_->SyncDirectory(dir);
  AddWriteTime(start);
  return status;
}

jim::util::StatusOr<std::vector<std::string>> CountingEnv::ListDirectory(
    const std::string& dir) {
  Bump(lists_);
  return base_->ListDirectory(dir);
}

jim::util::Status CountingEnv::RemoveFile(const std::string& path) {
  Bump(removes_);
  return base_->RemoveFile(path);
}

jim::util::Status CountingEnv::CreateDirectories(const std::string& dir) {
  return base_->CreateDirectories(dir);
}

void CountingEnv::SleepForMicros(uint64_t micros) {
  base_->SleepForMicros(micros);
}

class MemoryWritableFile final : public jim::storage::WritableFile {
 public:
  MemoryWritableFile(MemoryDirEnv* env, std::string path)
      : env_(env), path_(std::move(path)) {}
  ~MemoryWritableFile() override { (void)Close(); }

  jim::util::Status Append(const void* data, size_t size) override {
    if (closed_) return jim::util::FailedPreconditionError("file is closed");
    contents_.append(static_cast<const char*>(data), size);
    return jim::util::OkStatus();
  }
  jim::util::Status Sync() override { return jim::util::OkStatus(); }
  jim::util::Status Close() override {
    if (!closed_) env_->Store(path_, std::move(contents_));
    closed_ = true;
    return jim::util::OkStatus();
  }
  const std::string& path() const override { return path_; }

 private:
  MemoryDirEnv* env_;
  std::string path_;
  std::string contents_;
  bool closed_ = false;
};

MemoryDirEnv::MemoryDirEnv(std::string dir, jim::storage::Env* base)
    : base_(base != nullptr ? base : jim::storage::DefaultEnv()),
      dir_(std::move(dir)) {}

bool MemoryDirEnv::Owns(const std::string& path) const {
  if (dir_.empty()) return false;
  return path == dir_ || (path.size() > dir_.size() &&
                          path.compare(0, dir_.size(), dir_) == 0 &&
                          path[dir_.size()] == '/');
}

void MemoryDirEnv::Store(const std::string& path, std::string contents) {
  std::lock_guard<std::mutex> lock(mutex_);
  files_[path] = std::move(contents);
}

jim::util::StatusOr<std::unique_ptr<jim::storage::WritableFile>>
MemoryDirEnv::NewWritableFile(const std::string& path) {
  if (!Owns(path)) return base_->NewWritableFile(path);
  Store(path, "");
  return std::unique_ptr<jim::storage::WritableFile>(
      new MemoryWritableFile(this, path));
}

jim::util::StatusOr<std::string> MemoryDirEnv::ReadFileToString(
    const std::string& path) {
  if (!Owns(path)) return base_->ReadFileToString(path);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return jim::util::NotFoundError(path);
  return it->second;
}

jim::util::StatusOr<std::unique_ptr<jim::storage::ReadRegion>>
MemoryDirEnv::MapReadOnly(const std::string& path) {
  if (!Owns(path)) return base_->MapReadOnly(path);
  ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
  if (contents.empty()) {
    return jim::util::InvalidArgumentError(path + ": empty file");
  }
  return jim::storage::NewHeapRegion(std::move(contents));
}

jim::util::StatusOr<uint64_t> MemoryDirEnv::FileSize(const std::string& path) {
  if (!Owns(path)) return base_->FileSize(path);
  ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
  return static_cast<uint64_t>(contents.size());
}

jim::util::Status MemoryDirEnv::RenameReplacing(const std::string& from,
                                                const std::string& to) {
  if (!Owns(from) && !Owns(to)) return base_->RenameReplacing(from, to);
  if (!Owns(from) || !Owns(to)) {
    return jim::util::UnimplementedError("rename across " + dir_);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(from);
  if (it == files_.end()) return jim::util::NotFoundError(from);
  std::string contents = std::move(it->second);
  files_.erase(it);
  files_[to] = std::move(contents);
  return jim::util::OkStatus();
}

jim::util::Status MemoryDirEnv::SyncDirectory(const std::string& dir) {
  if (!Owns(dir)) return base_->SyncDirectory(dir);
  return jim::util::OkStatus();
}

jim::util::StatusOr<std::vector<std::string>> MemoryDirEnv::ListDirectory(
    const std::string& dir) {
  if (!Owns(dir)) return base_->ListDirectory(dir);
  const std::string prefix = dir + "/";
  std::vector<std::string> entries;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [path, contents] : files_) {
    if (path.compare(0, prefix.size(), prefix) == 0 &&
        path.find('/', prefix.size()) == std::string::npos) {
      entries.push_back(path.substr(prefix.size()));
    }
  }
  return entries;
}

jim::util::Status MemoryDirEnv::RemoveFile(const std::string& path) {
  if (!Owns(path)) return base_->RemoveFile(path);
  std::lock_guard<std::mutex> lock(mutex_);
  if (files_.erase(path) == 0) return jim::util::NotFoundError(path);
  return jim::util::OkStatus();
}

jim::util::Status MemoryDirEnv::CreateDirectories(const std::string& dir) {
  if (!Owns(dir)) return base_->CreateDirectories(dir);
  return jim::util::OkStatus();
}

void MemoryDirEnv::SleepForMicros(uint64_t micros) {
  base_->SleepForMicros(micros);
}

std::string FilesystemType(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0x01021994UL:
      return "tmpfs";
    case 0xEF53UL:
      return "ext2/3/4";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x9123683EUL:
      return "btrfs";
    case 0x58465342UL:
      return "xfs";
    default:
      return jim::util::StrFormat(
          "0x%lx", static_cast<unsigned long>(info.f_type));
  }
}

}  // namespace perfbench
