#include "serve/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <iostream>
#include <iterator>

#include "util/string_util.h"

// This file is the posix backend of the Transport seam — the one place in
// src/serve/ allowed to touch sockets directly (see the raw-io rule in
// tools/lint_determinism.py and its allowlist). Everything above it speaks
// Connection/Transport.

namespace jim::serve {
namespace {

util::Status ErrnoStatus(const char* what, int err) {
  std::string message =
      util::StrFormat("%s: %s (errno %d)", what, std::strerror(err), err);
  switch (err) {
    case EINTR:
    case EAGAIN:
    case EMFILE:
    case ENFILE:
      return util::UnavailableError(std::move(message));
    case ECONNREFUSED:
    case ECONNRESET:
    case EPIPE:
      return util::NotFoundError(std::move(message));
    default:
      return util::InternalError(std::move(message));
  }
}

/// accept(2) errors about one pending connection or a passing shortage.
constexpr int kRetryableAcceptErrors[] = {
    ECONNABORTED, EPROTO,   ENOPROTOOPT, EHOSTDOWN, ENONET, EHOSTUNREACH,
    EOPNOTSUPP,   ENETDOWN, ENETUNREACH, ENOBUFS,   ENOMEM, EPERM};

util::Status LineTooLong() {
  return util::ResourceExhaustedError(util::StrFormat(
      "request line exceeds %zu bytes", kMaxRequestLineBytes));
}

class TcpConnection final : public Connection {
 public:
  explicit TcpConnection(int fd) : fd_(fd) {}

  ~TcpConnection() override { ::close(fd_); }

  util::StatusOr<std::string> ReadLine() override {
    while (true) {
      // buffer_[0, scanned_) holds no '\n': only newly received bytes are
      // searched.
      const size_t newline = buffer_.find('\n', scanned_);
      if (newline != std::string::npos) {
        if (newline > kMaxRequestLineBytes) return LineTooLong();
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        scanned_ = 0;
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return line;
      }
      scanned_ = buffer_.size();
      if (scanned_ > kMaxRequestLineBytes) return LineTooLong();
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buffer_.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n == 0 || shutdown_.load(std::memory_order_acquire)) {
        // A partial trailing line without its '\n' is not a request.
        return util::NotFoundError("connection closed");
      }
      if (errno == EINTR) continue;
      return ErrnoStatus("recv", errno);
    }
  }

  util::Status WriteLine(std::string_view line) override {
    std::string framed(line);
    framed.push_back('\n');
    size_t sent = 0;
    while (sent < framed.size()) {
      // MSG_NOSIGNAL: a peer that went away surfaces as EPIPE, not SIGPIPE.
      ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                         MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (shutdown_.load(std::memory_order_acquire)) {
          return util::NotFoundError("connection closed");
        }
        return ErrnoStatus("send", errno);
      }
      sent += static_cast<size_t>(n);
    }
    return util::OkStatus();
  }

  void ShutdownNow() override {
    shutdown_.store(true, std::memory_order_release);
    // Unblocks a concurrent recv/send; the fd itself stays open until the
    // destructor so there is no close/use race with the reader thread.
    ::shutdown(fd_, SHUT_RDWR);
  }

 private:
  int fd_;
  std::string buffer_;
  size_t scanned_ = 0;
  std::atomic<bool> shutdown_{false};
};

class TcpTransport final : public Transport {
 public:
  TcpTransport(int listen_fd, std::string address)
      : listen_fd_(listen_fd), address_(std::move(address)) {}

  ~TcpTransport() override { ::close(listen_fd_); }

  util::StatusOr<std::unique_ptr<Connection>> Accept() override {
    while (true) {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        if (shutdown_.load(std::memory_order_acquire)) {
          ::close(fd);
          return util::OutOfRangeError("transport shut down");
        }
        return std::unique_ptr<Connection>(new TcpConnection(fd));
      }
      if (shutdown_.load(std::memory_order_acquire)) {
        return util::OutOfRangeError("transport shut down");
      }
      const int err = errno;
      if (err == EINTR) continue;
      const bool retry = std::count(std::begin(kRetryableAcceptErrors),
                                    std::end(kRetryableAcceptErrors), err) != 0;
      util::Status status = ErrnoStatus("accept", err);
      return retry ? util::UnavailableError(status.message()) : status;
    }
  }

  void ShutdownNow() override {
    shutdown_.store(true, std::memory_order_release);
    // On Linux, shutting a listening socket down unblocks accept(2) with an
    // error; the flag above turns that into the clean kOutOfRange verdict.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }

  const std::string& address() const override { return address_; }

 private:
  int listen_fd_;
  std::string address_;
  std::atomic<bool> shutdown_{false};
};

/// One connection over caller-provided streams. ShutdownNow cannot unblock
/// a blocking std::getline portably; it only fails subsequent operations.
/// The server never needs more: in stdio mode shutdown always arrives on
/// the connection's own request loop (shutdown verb or EOF).
class StreamConnection final : public Connection {
 public:
  StreamConnection(std::istream& in, std::ostream& out) : in_(in), out_(out) {}

  util::StatusOr<std::string> ReadLine() override {
    if (shutdown_.load(std::memory_order_acquire)) {
      return util::NotFoundError("connection closed");
    }
    std::string line;
    char c;
    while (in_.get(c) && c != '\n') {
      if (line.size() == kMaxRequestLineBytes) return LineTooLong();
      line.push_back(c);
    }
    // End of input before any byte is a close; a final line without its
    // '\n' still counts.
    if (!in_ && line.empty()) {
      return util::NotFoundError("connection closed");
    }
    if (!line.empty() && line.back() == '\r') line.pop_back();
    return line;
  }

  util::Status WriteLine(std::string_view line) override {
    if (shutdown_.load(std::memory_order_acquire)) {
      return util::NotFoundError("connection closed");
    }
    out_ << line << '\n';
    out_.flush();
    if (!out_.good()) {
      return util::InternalError("stream write failed");
    }
    return util::OkStatus();
  }

  void ShutdownNow() override {
    shutdown_.store(true, std::memory_order_release);
  }

 private:
  std::istream& in_;
  std::ostream& out_;
  std::atomic<bool> shutdown_{false};
};

class OneShotStreamTransport final : public Transport {
 public:
  OneShotStreamTransport(std::istream& in, std::ostream& out)
      : in_(in), out_(out), address_("stdio") {}

  util::StatusOr<std::unique_ptr<Connection>> Accept() override {
    bool expected = false;
    if (shutdown_.load(std::memory_order_acquire) ||
        !accepted_.compare_exchange_strong(expected, true)) {
      return util::OutOfRangeError("transport shut down");
    }
    return std::unique_ptr<Connection>(new StreamConnection(in_, out_));
  }

  void ShutdownNow() override {
    shutdown_.store(true, std::memory_order_release);
  }

  const std::string& address() const override { return address_; }

 private:
  std::istream& in_;
  std::ostream& out_;
  std::string address_;
  std::atomic<bool> accepted_{false};
  std::atomic<bool> shutdown_{false};
};

}  // namespace

util::StatusOr<std::unique_ptr<Transport>> ListenTcp(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return ErrnoStatus("socket", errno);
  int enable = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable)) <
      0) {
    int err = errno;
    ::close(fd);
    return ErrnoStatus("setsockopt(SO_REUSEADDR)", err);
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    int err = errno;
    ::close(fd);
    return ErrnoStatus("bind", err);
  }
  if (::listen(fd, 128) < 0) {
    int err = errno;
    ::close(fd);
    return ErrnoStatus("listen", err);
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) < 0) {
    int err = errno;
    ::close(fd);
    return ErrnoStatus("getsockname", err);
  }
  std::string address =
      util::StrFormat("127.0.0.1:%u", ntohs(addr.sin_port));
  return std::unique_ptr<Transport>(new TcpTransport(fd, std::move(address)));
}

util::StatusOr<uint16_t> PortOfAddress(const std::string& address) {
  size_t colon = address.rfind(':');
  if (colon == std::string::npos) {
    return util::InvalidArgumentError(
        util::StrFormat("address '%s' has no port", address.c_str()));
  }
  ASSIGN_OR_RETURN(int64_t port, util::ParseInt64(address.substr(colon + 1)));
  if (port < 0 || port > 65535) {
    return util::InvalidArgumentError(
        util::StrFormat("address '%s' has an invalid port", address.c_str()));
  }
  return static_cast<uint16_t>(port);
}

util::StatusOr<std::unique_ptr<Transport>> StdioTransport() {
  return StreamTransport(std::cin, std::cout);
}

util::StatusOr<std::unique_ptr<Transport>> StreamTransport(std::istream& in,
                                                           std::ostream& out) {
  return std::unique_ptr<Transport>(new OneShotStreamTransport(in, out));
}

util::StatusOr<std::unique_ptr<Connection>> ConnectTcp(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return ErrnoStatus("socket", errno);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  while (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
         0) {
    if (errno == EINTR) continue;
    int err = errno;
    ::close(fd);
    return ErrnoStatus("connect", err);
  }
  return std::unique_ptr<Connection>(new TcpConnection(fd));
}

}  // namespace jim::serve
