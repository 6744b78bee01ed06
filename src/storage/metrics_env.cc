#include "storage/metrics_env.h"

#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace jim::storage {

namespace {

/// Local relaxed bump + mirrored registry counter. The mirror is a
/// JIM_COUNT-style site, so the registry only sees traffic while metrics
/// are enabled; the local tally is unconditional (tests rely on it).
void Bump(std::atomic<uint64_t>& cell, uint64_t n = 1) {
  cell.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace

/// Counts Append/Sync/Close on behalf of the owning MetricsEnv, then
/// forwards to the wrapped handle.
class MetricsWritableFile final : public WritableFile {
 public:
  MetricsWritableFile(MetricsEnv* env, std::unique_ptr<WritableFile> base)
      : env_(env), base_(std::move(base)) {}

  util::Status Append(const void* data, size_t size) override {
    Bump(env_->counts_.appends);
    Bump(env_->counts_.append_bytes, size);
    JIM_COUNT(obs::kCounterStorageAppends);
    JIM_COUNT_N(obs::kCounterStorageAppendBytes, size);
    util::Status status = base_->Append(data, size);
    env_->CountFailure(status);
    return status;
  }

  util::Status Sync() override {
    Bump(env_->counts_.fsyncs);
    JIM_COUNT(obs::kCounterStorageFsyncs);
    util::Status status = base_->Sync();
    env_->CountFailure(status);
    return status;
  }

  util::Status Close() override {
    Bump(env_->counts_.closes);
    JIM_COUNT(obs::kCounterStorageCloses);
    util::Status status = base_->Close();
    env_->CountFailure(status);
    return status;
  }

  const std::string& path() const override { return base_->path(); }

 private:
  MetricsEnv* env_;
  std::unique_ptr<WritableFile> base_;
};

MetricsEnv::MetricsEnv(Env* base)
    : base_(base != nullptr ? base : DefaultEnv()) {}

MetricsEnv::Counts MetricsEnv::counts() const {
  Counts out;
  out.creates = counts_.creates.load(std::memory_order_relaxed);
  out.appends = counts_.appends.load(std::memory_order_relaxed);
  out.append_bytes = counts_.append_bytes.load(std::memory_order_relaxed);
  out.fsyncs = counts_.fsyncs.load(std::memory_order_relaxed);
  out.closes = counts_.closes.load(std::memory_order_relaxed);
  out.reads = counts_.reads.load(std::memory_order_relaxed);
  out.read_bytes = counts_.read_bytes.load(std::memory_order_relaxed);
  out.mmaps = counts_.mmaps.load(std::memory_order_relaxed);
  out.mmap_bytes = counts_.mmap_bytes.load(std::memory_order_relaxed);
  out.stats = counts_.stats.load(std::memory_order_relaxed);
  out.renames = counts_.renames.load(std::memory_order_relaxed);
  out.dir_syncs = counts_.dir_syncs.load(std::memory_order_relaxed);
  out.lists = counts_.lists.load(std::memory_order_relaxed);
  out.removes = counts_.removes.load(std::memory_order_relaxed);
  out.mkdirs = counts_.mkdirs.load(std::memory_order_relaxed);
  out.sleeps = counts_.sleeps.load(std::memory_order_relaxed);
  out.micros_slept = counts_.micros_slept.load(std::memory_order_relaxed);
  out.failures = counts_.failures.load(std::memory_order_relaxed);
  return out;
}

void MetricsEnv::ResetCounts() {
  counts_.creates.store(0, std::memory_order_relaxed);
  counts_.appends.store(0, std::memory_order_relaxed);
  counts_.append_bytes.store(0, std::memory_order_relaxed);
  counts_.fsyncs.store(0, std::memory_order_relaxed);
  counts_.closes.store(0, std::memory_order_relaxed);
  counts_.reads.store(0, std::memory_order_relaxed);
  counts_.read_bytes.store(0, std::memory_order_relaxed);
  counts_.mmaps.store(0, std::memory_order_relaxed);
  counts_.mmap_bytes.store(0, std::memory_order_relaxed);
  counts_.stats.store(0, std::memory_order_relaxed);
  counts_.renames.store(0, std::memory_order_relaxed);
  counts_.dir_syncs.store(0, std::memory_order_relaxed);
  counts_.lists.store(0, std::memory_order_relaxed);
  counts_.removes.store(0, std::memory_order_relaxed);
  counts_.mkdirs.store(0, std::memory_order_relaxed);
  counts_.sleeps.store(0, std::memory_order_relaxed);
  counts_.micros_slept.store(0, std::memory_order_relaxed);
  counts_.failures.store(0, std::memory_order_relaxed);
}

void MetricsEnv::CountFailure(const util::Status& status) {
  if (!status.ok()) {
    Bump(counts_.failures);
    JIM_COUNT(obs::kCounterStorageFailures);
  }
}

util::StatusOr<std::unique_ptr<WritableFile>> MetricsEnv::NewWritableFile(
    const std::string& path) {
  Bump(counts_.creates);
  JIM_COUNT(obs::kCounterStorageCreates);
  auto file = base_->NewWritableFile(path);
  if (!file.ok()) {
    CountFailure(file.status());
    return file.status();
  }
  return std::unique_ptr<WritableFile>(
      new MetricsWritableFile(this, std::move(file.value())));
}

util::StatusOr<std::string> MetricsEnv::ReadFileToString(
    const std::string& path) {
  Bump(counts_.reads);
  JIM_COUNT(obs::kCounterStorageReads);
  auto contents = base_->ReadFileToString(path);
  if (!contents.ok()) {
    CountFailure(contents.status());
    return contents;
  }
  Bump(counts_.read_bytes, contents.value().size());
  JIM_COUNT_N(obs::kCounterStorageReadBytes, contents.value().size());
  return contents;
}

util::StatusOr<std::unique_ptr<ReadRegion>> MetricsEnv::MapReadOnly(
    const std::string& path) {
  Bump(counts_.mmaps);
  JIM_COUNT(obs::kCounterStorageMmaps);
  auto region = base_->MapReadOnly(path);
  if (!region.ok()) {
    CountFailure(region.status());
    return region;
  }
  Bump(counts_.mmap_bytes, region.value()->size());
  JIM_COUNT_N(obs::kCounterStorageMmapBytes, region.value()->size());
  return region;
}

util::StatusOr<uint64_t> MetricsEnv::FileSize(const std::string& path) {
  Bump(counts_.stats);
  JIM_COUNT(obs::kCounterStorageStats);
  auto size = base_->FileSize(path);
  if (!size.ok()) CountFailure(size.status());
  return size;
}

util::Status MetricsEnv::RenameReplacing(const std::string& from,
                                         const std::string& to) {
  Bump(counts_.renames);
  JIM_COUNT(obs::kCounterStorageRenames);
  util::Status status = base_->RenameReplacing(from, to);
  CountFailure(status);
  return status;
}

util::Status MetricsEnv::SyncDirectory(const std::string& dir) {
  Bump(counts_.dir_syncs);
  JIM_COUNT(obs::kCounterStorageDirSyncs);
  util::Status status = base_->SyncDirectory(dir);
  CountFailure(status);
  return status;
}

util::StatusOr<std::vector<std::string>> MetricsEnv::ListDirectory(
    const std::string& dir) {
  Bump(counts_.lists);
  JIM_COUNT(obs::kCounterStorageLists);
  auto entries = base_->ListDirectory(dir);
  if (!entries.ok()) CountFailure(entries.status());
  return entries;
}

util::Status MetricsEnv::RemoveFile(const std::string& path) {
  Bump(counts_.removes);
  JIM_COUNT(obs::kCounterStorageRemoves);
  util::Status status = base_->RemoveFile(path);
  CountFailure(status);
  return status;
}

util::Status MetricsEnv::CreateDirectories(const std::string& dir) {
  Bump(counts_.mkdirs);
  JIM_COUNT(obs::kCounterStorageMkdirs);
  util::Status status = base_->CreateDirectories(dir);
  CountFailure(status);
  return status;
}

void MetricsEnv::SleepForMicros(uint64_t micros) {
  Bump(counts_.sleeps);
  Bump(counts_.micros_slept, micros);
  JIM_COUNT(obs::kCounterStorageRetries);
  base_->SleepForMicros(micros);
}

}  // namespace jim::storage
