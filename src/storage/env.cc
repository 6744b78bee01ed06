#include "storage/env.h"

// The ONE translation unit in src/storage/ allowed to touch the filesystem
// directly (tools/lint_determinism.py raw-io rule): every stream, syscall,
// and std::filesystem mutation the storage tier performs lives here, behind
// the Env virtual interface, so the tests' FaultInjectionEnv
// (tests/support/fault_env.h) can interpose on all of them.

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <thread>
#include <utility>

#include "util/string_util.h"

#if !defined(_WIN32)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#include <fstream>
#endif

namespace jim::storage {

namespace {

/// Maps an errno to the canonical Status space, with strerror detail — the
/// typed classification every retry/fallback decision keys on.
util::Status ErrnoStatus(const std::string& context, int err) {
  const std::string message = util::StrFormat(
      "%s: %s (errno %d)", context.c_str(),
      std::generic_category().message(err).c_str(), err);
  switch (err) {
    case ENOENT:
#if defined(ENOTDIR)
    case ENOTDIR:
#endif
      return util::NotFoundError(message);
    case EINTR:
    case EAGAIN:
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
    case EWOULDBLOCK:
#endif
    case EBUSY:
#if defined(EMFILE)
    case EMFILE:
#endif
#if defined(ENFILE)
    case ENFILE:
#endif
      return util::UnavailableError(message);
    case ENOSPC:
#if defined(EDQUOT)
    case EDQUOT:
#endif
      return util::ResourceExhaustedError(message);
    default:
      return util::InternalError(message);
  }
}

class HeapRegion final : public ReadRegion {
 public:
  explicit HeapRegion(std::string bytes) : bytes_(std::move(bytes)) {}
  const uint8_t* data() const override {
    return reinterpret_cast<const uint8_t*>(bytes_.data());
  }
  size_t size() const override { return bytes_.size(); }
  bool zero_copy() const override { return false; }

 private:
  std::string bytes_;
};

#if !defined(_WIN32)

class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  util::Status Append(const void* data, size_t size) override {
    if (fd_ < 0) {
      return util::InternalError("write to closed file " + path_);
    }
    const char* cursor = static_cast<const char*>(data);
    size_t left = size;
    while (left > 0) {
      const ssize_t written = ::write(fd_, cursor, left);
      if (written < 0) {
        if (errno == EINTR) continue;  // interrupted, not failed
        return ErrnoStatus("cannot write " + path_, errno);
      }
      cursor += written;
      left -= static_cast<size_t>(written);
    }
    return util::OkStatus();
  }

  util::Status Sync() override {
    if (fd_ < 0) {
      return util::InternalError("fsync on closed file " + path_);
    }
    if (::fsync(fd_) != 0) {
      return ErrnoStatus("fsync failed on " + path_, errno);
    }
    return util::OkStatus();
  }

  util::Status Close() override {
    if (fd_ < 0) return util::OkStatus();
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) {
      return ErrnoStatus("cannot close " + path_, errno);
    }
    return util::OkStatus();
  }

  const std::string& path() const override { return path_; }

 private:
  int fd_;
  std::string path_;
};

class MmapRegion final : public ReadRegion {
 public:
  MmapRegion(const void* data, size_t size) : data_(data), size_(size) {}
  ~MmapRegion() override { ::munmap(const_cast<void*>(data_), size_); }
  const uint8_t* data() const override {
    return static_cast<const uint8_t*>(data_);
  }
  size_t size() const override { return size_; }
  bool zero_copy() const override { return true; }

 private:
  const void* data_;
  size_t size_;
};

#else  // _WIN32

/// Stream-backed fallback where the POSIX fd API is unavailable. Sync is a
/// flush only — no fsync primitive is exposed here, matching the previous
/// SyncPath no-op on this platform.
class StreamWritableFile final : public WritableFile {
 public:
  StreamWritableFile(std::ofstream out, std::string path)
      : out_(std::move(out)), path_(std::move(path)) {}

  util::Status Append(const void* data, size_t size) override {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(size));
    if (!out_.good()) return util::InternalError("cannot write " + path_);
    return util::OkStatus();
  }
  util::Status Sync() override {
    out_.flush();
    if (!out_.good()) return util::InternalError("flush failed on " + path_);
    return util::OkStatus();
  }
  util::Status Close() override {
    if (!out_.is_open()) return util::OkStatus();
    out_.close();
    if (out_.fail()) return util::InternalError("cannot close " + path_);
    return util::OkStatus();
  }
  const std::string& path() const override { return path_; }

 private:
  std::ofstream out_;
  std::string path_;
};

#endif  // _WIN32

class PosixEnv final : public Env {
 public:
  util::StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
#if !defined(_WIN32)
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
      return ErrnoStatus("cannot open " + path + " for writing", errno);
    }
    return std::unique_ptr<WritableFile>(new PosixWritableFile(fd, path));
#else
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return util::InternalError("cannot open " + path + " for writing");
    }
    return std::unique_ptr<WritableFile>(
        new StreamWritableFile(std::move(out), path));
#endif
  }

  util::StatusOr<std::string> ReadFileToString(
      const std::string& path) override {
#if !defined(_WIN32)
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      return ErrnoStatus("cannot open " + path, errno);
    }
    std::string contents;
    char buffer[1 << 16];
    for (;;) {
      const ssize_t got = ::read(fd, buffer, sizeof(buffer));
      if (got < 0) {
        if (errno == EINTR) continue;
        const util::Status status = ErrnoStatus("cannot read " + path, errno);
        ::close(fd);
        return status;
      }
      if (got == 0) break;
      contents.append(buffer, static_cast<size_t>(got));
    }
    ::close(fd);
    return contents;
#else
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) return util::NotFoundError("cannot open " + path);
    const std::streamsize size = in.tellg();
    in.seekg(0);
    std::string contents(static_cast<size_t>(size), '\0');
    if (size > 0 && !in.read(&contents[0], size)) {
      return util::InternalError("short read on " + path);
    }
    return contents;
#endif
  }

  util::StatusOr<std::unique_ptr<ReadRegion>> MapReadOnly(
      const std::string& path) override {
#if !defined(_WIN32)
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      return ErrnoStatus("cannot open " + path, errno);
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      const util::Status status = ErrnoStatus("fstat failed on " + path,
                                              errno);
      ::close(fd);
      return status;
    }
    const size_t size = static_cast<size_t>(st.st_size);
    if (size == 0) {
      ::close(fd);
      return util::InvalidArgumentError("cannot map " + path +
                                        ": empty file");
    }
    void* mapping = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);  // the mapping holds its own reference
    if (mapping == MAP_FAILED) {
      return ErrnoStatus("mmap failed on " + path, errno);
    }
    return std::unique_ptr<ReadRegion>(new MmapRegion(mapping, size));
#else
    return util::UnimplementedError("mmap is unavailable on this platform");
#endif
  }

  util::StatusOr<uint64_t> FileSize(const std::string& path) override {
#if !defined(_WIN32)
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      return ErrnoStatus("cannot stat " + path, errno);
    }
    return static_cast<uint64_t>(st.st_size);
#else
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (ec) {
      return util::NotFoundError("cannot stat " + path + ": " + ec.message());
    }
    return static_cast<uint64_t>(size);
#endif
  }

  util::Status RenameReplacing(const std::string& from,
                               const std::string& to) override {
#if defined(_WIN32)
    // std::rename refuses to replace on Windows; removing first narrows but
    // does not close the non-atomicity window.
    std::remove(to.c_str());
#endif
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      return ErrnoStatus(
          "cannot rename " + from + " into place as " + to, errno);
    }
    return util::OkStatus();
  }

  util::Status SyncDirectory(const std::string& dir) override {
#if defined(_WIN32)
    (void)dir;
    return util::OkStatus();
#else
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) {
      return ErrnoStatus("cannot open directory " + dir + " for fsync",
                         errno);
    }
    const int rc = ::fsync(fd);
    const int err = errno;
    ::close(fd);
    if (rc != 0) return ErrnoStatus("fsync failed on directory " + dir, err);
    return util::OkStatus();
#endif
  }

  util::StatusOr<std::vector<std::string>> ListDirectory(
      const std::string& dir) override {
    // std::filesystem throws from mid-iteration readdir failures (the
    // error_code constructor does not cover them); convert to Status.
    std::vector<std::string> files;
    try {
      std::error_code ec;
      for (const auto& entry :
           std::filesystem::directory_iterator(dir, ec)) {
        files.push_back(entry.path().filename().string());
      }
      if (ec) {
        return util::InternalError(util::StrFormat(
            "cannot list %s: %s", dir.c_str(), ec.message().c_str()));
      }
    } catch (const std::filesystem::filesystem_error& error) {
      return util::InternalError(util::StrFormat(
          "cannot list %s: %s", dir.c_str(), error.what()));
    }
    return files;
  }

  util::Status RemoveFile(const std::string& path) override {
    if (std::remove(path.c_str()) != 0) {
      return ErrnoStatus("cannot remove " + path, errno);
    }
    return util::OkStatus();
  }

  util::Status CreateDirectories(const std::string& dir) override {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      return util::InternalError(util::StrFormat(
          "cannot create %s: %s", dir.c_str(), ec.message().c_str()));
    }
    return util::OkStatus();
  }

  void SleepForMicros(uint64_t micros) override {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
};

}  // namespace

Env* DefaultEnv() {
  static PosixEnv* env = new PosixEnv();
  return env;
}

std::unique_ptr<ReadRegion> NewHeapRegion(std::string contents) {
  return std::unique_ptr<ReadRegion>(new HeapRegion(std::move(contents)));
}

std::string ParentDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

util::Status RetryWithBackoff(Env& env, const RetryPolicy& policy,
                              const std::function<util::Status()>& attempt) {
  uint64_t backoff = policy.initial_backoff_micros;
  for (int tries = 1;; ++tries) {
    const util::Status status = attempt();
    if (status.code() != util::StatusCode::kUnavailable ||
        tries >= policy.max_attempts) {
      return status;
    }
    env.SleepForMicros(backoff);
    backoff *= policy.backoff_multiplier;
  }
}

util::Status WriteFileAtomicallyWith(
    Env& env, const std::string& path,
    const std::function<util::Status(WritableFile&)>& write) {
  const std::string tmp_path = path + ".tmp";
  {
    auto opened = env.NewWritableFile(tmp_path);
    if (!opened.ok()) return opened.status();
    std::unique_ptr<WritableFile> file = std::move(opened).value();
    util::Status written = write(*file);
    if (written.ok()) {
      // Data blocks must hit stable storage before the rename is journaled,
      // or a power cut could leave the final name pointing at garbage with
      // the previous good file already gone.
      written = file->Sync();
    }
    if (written.ok()) written = file->Close();
    if (!written.ok()) {
      (void)file->Close();
      (void)env.RemoveFile(tmp_path);  // best effort
      return written;
    }
  }
  {
    const util::Status renamed = env.RenameReplacing(tmp_path, path);
    if (!renamed.ok()) {
      (void)env.RemoveFile(tmp_path);  // best effort
      return renamed;
    }
  }
  // Persist the rename itself (the directory entry).
  return env.SyncDirectory(ParentDirectory(path));
}

util::Status WriteFileAtomically(Env& env, const std::string& path,
                                 const std::string& contents) {
  return WriteFileAtomicallyWith(env, path, [&contents](WritableFile& file) {
    return file.Append(contents);
  });
}

}  // namespace jim::storage
