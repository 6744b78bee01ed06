#include "storage/metrics_env.h"

#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace jim::storage {

namespace {

/// Counts a failed op (mirrored, like every counter here, only while
/// metrics are enabled).
void CountFailure(const util::Status& status) {
  if (!status.ok()) JIM_COUNT(obs::kCounterStorageFailures);
}

/// Counts Append/Sync/Close, then forwards to the wrapped handle.
class MetricsWritableFile final : public WritableFile {
 public:
  explicit MetricsWritableFile(std::unique_ptr<WritableFile> base)
      : base_(std::move(base)) {}

  util::Status Append(const void* data, size_t size) override {
    JIM_COUNT(obs::kCounterStorageAppends);
    JIM_COUNT_N(obs::kCounterStorageAppendBytes, size);
    util::Status status = base_->Append(data, size);
    CountFailure(status);
    return status;
  }

  util::Status Sync() override {
    JIM_COUNT(obs::kCounterStorageFsyncs);
    util::Status status = base_->Sync();
    CountFailure(status);
    return status;
  }

  util::Status Close() override {
    JIM_COUNT(obs::kCounterStorageCloses);
    util::Status status = base_->Close();
    CountFailure(status);
    return status;
  }

  const std::string& path() const override { return base_->path(); }

 private:
  std::unique_ptr<WritableFile> base_;
};

}  // namespace

MetricsEnv::MetricsEnv(Env* base)
    : base_(base != nullptr ? base : DefaultEnv()) {}

util::StatusOr<std::unique_ptr<WritableFile>> MetricsEnv::NewWritableFile(
    const std::string& path) {
  JIM_COUNT(obs::kCounterStorageCreates);
  auto file = base_->NewWritableFile(path);
  if (!file.ok()) {
    CountFailure(file.status());
    return file.status();
  }
  return std::unique_ptr<WritableFile>(
      new MetricsWritableFile(std::move(file.value())));
}

util::StatusOr<std::string> MetricsEnv::ReadFileToString(
    const std::string& path) {
  JIM_COUNT(obs::kCounterStorageReads);
  auto contents = base_->ReadFileToString(path);
  if (!contents.ok()) {
    CountFailure(contents.status());
    return contents;
  }
  JIM_COUNT_N(obs::kCounterStorageReadBytes, contents.value().size());
  return contents;
}

util::StatusOr<std::unique_ptr<ReadRegion>> MetricsEnv::MapReadOnly(
    const std::string& path) {
  JIM_COUNT(obs::kCounterStorageMmaps);
  auto region = base_->MapReadOnly(path);
  if (!region.ok()) {
    CountFailure(region.status());
    return region;
  }
  JIM_COUNT_N(obs::kCounterStorageMmapBytes, region.value()->size());
  return region;
}

util::StatusOr<uint64_t> MetricsEnv::FileSize(const std::string& path) {
  JIM_COUNT(obs::kCounterStorageStats);
  auto size = base_->FileSize(path);
  if (!size.ok()) CountFailure(size.status());
  return size;
}

util::Status MetricsEnv::RenameReplacing(const std::string& from,
                                         const std::string& to) {
  JIM_COUNT(obs::kCounterStorageRenames);
  util::Status status = base_->RenameReplacing(from, to);
  CountFailure(status);
  return status;
}

util::Status MetricsEnv::SyncDirectory(const std::string& dir) {
  JIM_COUNT(obs::kCounterStorageDirSyncs);
  util::Status status = base_->SyncDirectory(dir);
  CountFailure(status);
  return status;
}

util::StatusOr<std::vector<std::string>> MetricsEnv::ListDirectory(
    const std::string& dir) {
  JIM_COUNT(obs::kCounterStorageLists);
  auto entries = base_->ListDirectory(dir);
  if (!entries.ok()) CountFailure(entries.status());
  return entries;
}

util::Status MetricsEnv::RemoveFile(const std::string& path) {
  JIM_COUNT(obs::kCounterStorageRemoves);
  util::Status status = base_->RemoveFile(path);
  CountFailure(status);
  return status;
}

util::Status MetricsEnv::CreateDirectories(const std::string& dir) {
  JIM_COUNT(obs::kCounterStorageMkdirs);
  util::Status status = base_->CreateDirectories(dir);
  CountFailure(status);
  return status;
}

void MetricsEnv::SleepForMicros(uint64_t micros) {
  JIM_COUNT(obs::kCounterStorageRetries);
  base_->SleepForMicros(micros);
}

}  // namespace jim::storage
