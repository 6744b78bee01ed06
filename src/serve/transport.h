#ifndef JIM_SERVE_TRANSPORT_H_
#define JIM_SERVE_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <string>

#include "util/status.h"

namespace jim::serve {

/// Longest line a Connection reads, terminator excluded. Fixed, not an
/// option: requests and responses are a few hundred bytes, and the cap is
/// what bounds a connection's buffer against a peer that never sends '\n'.
inline constexpr size_t kMaxRequestLineBytes = size_t{1} << 20;

/// One bidirectional newline-delimited byte stream between the daemon and a
/// client. ReadLine blocks; ShutdownNow unblocks it from another thread
/// (the server's teardown path), after which reads and writes fail.
class Connection {
 public:
  virtual ~Connection() = default;

  /// Next line, without its terminator. kNotFound("connection closed") on a
  /// clean peer close or shutdown; kResourceExhausted for a line longer than
  /// kMaxRequestLineBytes (the stream cannot be framed past it, so the
  /// connection is done); other codes for transport errors.
  virtual util::StatusOr<std::string> ReadLine() = 0;
  /// Writes `line` plus '\n' and flushes.
  virtual util::Status WriteLine(std::string_view line) = 0;
  /// Thread-safe: unblocks a concurrent ReadLine and fails the connection.
  virtual void ShutdownNow() = 0;
};

/// The server's listening seam: hands out connections until shut down.
/// Implementations: localhost TCP and stdin/stdout; an HTTP front can slot
/// in later without the server or SessionManager noticing.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Blocks for the next client; several handler threads call it at once.
  /// kOutOfRange("transport shut down") once ShutdownNow was called (or the
  /// transport is exhausted, for stdio); kUnavailable for a transient
  /// failure (out of fds, an aborted pending connection) worth a retry.
  virtual util::StatusOr<std::unique_ptr<Connection>> Accept() = 0;
  /// Thread-safe: unblocks a concurrent Accept and stops the transport.
  virtual void ShutdownNow() = 0;
  /// Human-readable endpoint, e.g. "127.0.0.1:41234" or "stdio".
  virtual const std::string& address() const = 0;
};

/// Listens on 127.0.0.1:`port` (0 = kernel-assigned ephemeral port; the
/// actual one is in address()).
util::StatusOr<std::unique_ptr<Transport>> ListenTcp(uint16_t port);

/// The port of a "host:port" address string.
util::StatusOr<uint16_t> PortOfAddress(const std::string& address);

/// A transport serving exactly one connection over the given streams
/// (default std::cin/std::cout — the `jim_cli serve --stdio` mode). The
/// second Accept reports the transport exhausted, which is what lets the
/// server's handlers terminate after the one session of a piped run.
util::StatusOr<std::unique_ptr<Transport>> StdioTransport();
util::StatusOr<std::unique_ptr<Transport>> StreamTransport(std::istream& in,
                                                           std::ostream& out);

/// Client side: connects to 127.0.0.1:`port`.
util::StatusOr<std::unique_ptr<Connection>> ConnectTcp(uint16_t port);

}  // namespace jim::serve

#endif  // JIM_SERVE_TRANSPORT_H_
