#include "support/tally_env.h"

#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace jim::storage {

StorageCounts RegistryStorageCounts() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  StorageCounts counts;
  counts.creates = registry.CounterValue(obs::kCounterStorageCreates);
  counts.appends = registry.CounterValue(obs::kCounterStorageAppends);
  counts.append_bytes = registry.CounterValue(obs::kCounterStorageAppendBytes);
  counts.fsyncs = registry.CounterValue(obs::kCounterStorageFsyncs);
  counts.closes = registry.CounterValue(obs::kCounterStorageCloses);
  counts.reads = registry.CounterValue(obs::kCounterStorageReads);
  counts.read_bytes = registry.CounterValue(obs::kCounterStorageReadBytes);
  counts.mmaps = registry.CounterValue(obs::kCounterStorageMmaps);
  counts.mmap_bytes = registry.CounterValue(obs::kCounterStorageMmapBytes);
  counts.stats = registry.CounterValue(obs::kCounterStorageStats);
  counts.renames = registry.CounterValue(obs::kCounterStorageRenames);
  counts.dir_syncs = registry.CounterValue(obs::kCounterStorageDirSyncs);
  counts.lists = registry.CounterValue(obs::kCounterStorageLists);
  counts.removes = registry.CounterValue(obs::kCounterStorageRemoves);
  counts.mkdirs = registry.CounterValue(obs::kCounterStorageMkdirs);
  counts.sleeps = registry.CounterValue(obs::kCounterStorageRetries);
  counts.failures = registry.CounterValue(obs::kCounterStorageFailures);
  return counts;
}

/// Counts Append/Sync/Close on behalf of the owning TallyEnv, then forwards
/// to the wrapped handle.
class TallyWritableFile final : public WritableFile {
 public:
  TallyWritableFile(TallyEnv* env, std::unique_ptr<WritableFile> base)
      : env_(env), base_(std::move(base)) {}

  util::Status Append(const void* data, size_t size) override {
    ++env_->counts_.appends;
    env_->counts_.append_bytes += size;
    util::Status status = base_->Append(data, size);
    env_->CountFailure(status);
    return status;
  }

  util::Status Sync() override {
    ++env_->counts_.fsyncs;
    util::Status status = base_->Sync();
    env_->CountFailure(status);
    return status;
  }

  util::Status Close() override {
    ++env_->counts_.closes;
    util::Status status = base_->Close();
    env_->CountFailure(status);
    return status;
  }

  const std::string& path() const override { return base_->path(); }

 private:
  TallyEnv* env_;
  std::unique_ptr<WritableFile> base_;
};

TallyEnv::TallyEnv(Env* base)
    : base_(base != nullptr ? base : DefaultEnv()) {}

util::StatusOr<std::unique_ptr<WritableFile>> TallyEnv::NewWritableFile(
    const std::string& path) {
  ++counts_.creates;
  auto file = base_->NewWritableFile(path);
  if (!file.ok()) {
    CountFailure(file.status());
    return file.status();
  }
  return std::unique_ptr<WritableFile>(
      new TallyWritableFile(this, std::move(file.value())));
}

util::StatusOr<std::string> TallyEnv::ReadFileToString(
    const std::string& path) {
  ++counts_.reads;
  auto contents = base_->ReadFileToString(path);
  CountFailure(contents.status());
  if (contents.ok()) counts_.read_bytes += contents->size();
  return contents;
}

util::StatusOr<std::unique_ptr<ReadRegion>> TallyEnv::MapReadOnly(
    const std::string& path) {
  ++counts_.mmaps;
  auto region = base_->MapReadOnly(path);
  CountFailure(region.status());
  if (region.ok()) counts_.mmap_bytes += (*region)->size();
  return region;
}

util::StatusOr<uint64_t> TallyEnv::FileSize(const std::string& path) {
  ++counts_.stats;
  auto size = base_->FileSize(path);
  CountFailure(size.status());
  return size;
}

util::Status TallyEnv::RenameReplacing(const std::string& from,
                                       const std::string& to) {
  ++counts_.renames;
  util::Status status = base_->RenameReplacing(from, to);
  CountFailure(status);
  return status;
}

util::Status TallyEnv::SyncDirectory(const std::string& dir) {
  ++counts_.dir_syncs;
  util::Status status = base_->SyncDirectory(dir);
  CountFailure(status);
  return status;
}

util::StatusOr<std::vector<std::string>> TallyEnv::ListDirectory(
    const std::string& dir) {
  ++counts_.lists;
  auto entries = base_->ListDirectory(dir);
  CountFailure(entries.status());
  return entries;
}

util::Status TallyEnv::RemoveFile(const std::string& path) {
  ++counts_.removes;
  util::Status status = base_->RemoveFile(path);
  CountFailure(status);
  return status;
}

util::Status TallyEnv::CreateDirectories(const std::string& dir) {
  ++counts_.mkdirs;
  util::Status status = base_->CreateDirectories(dir);
  CountFailure(status);
  return status;
}

void TallyEnv::SleepForMicros(uint64_t micros) {
  ++counts_.sleeps;
  counts_.micros_slept += micros;
  base_->SleepForMicros(micros);
}

}  // namespace jim::storage
