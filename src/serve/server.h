#ifndef JIM_SERVE_SERVER_H_
#define JIM_SERVE_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "serve/session_manager.h"
#include "serve/transport.h"
#include "util/status.h"

namespace jim::serve {

/// Bound on ServerOptions::max_connections (each is a thread).
inline constexpr size_t kMaxConnections = 1024;

/// A handler's wait before it retries a transient Accept failure, so one
/// that persists (out of fds) does not spin a core.
inline constexpr int64_t kAcceptRetryDelayMicros = 20000;

struct ServerOptions {
  /// Connections served concurrently, in [1, kMaxConnections], one handler
  /// thread each; further clients wait in the transport's listen backlog
  /// (backpressure, not rejection).
  size_t max_connections = 32;
};

/// The daemon's request loop: `max_connections` handler threads each accept
/// a connection off a Transport and serve it until EOF, mapping protocol
/// verbs onto a SessionManager. Responses to session verbs deliberately
/// carry no session id — two runs that drive the same session configurations
/// produce byte-identical suggest/label/status/result lines even when the
/// daemons minted different ids, which is what the recovery tests diff.
///
/// Lifecycle: Start() spawns the handlers; Shutdown() (or a client's
/// `shutdown` verb) stops the transport and unblocks every connection;
/// Wait() blocks until every handler has exited. All three are safe to call
/// from any thread, once.
class Server {
 public:
  /// `manager` and `transport` must outlive the server. The transport is
  /// owned from here on.
  Server(SessionManager* manager, std::unique_ptr<Transport> transport,
         ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const std::string& address() const { return transport_->address(); }

  /// Spawns the connection handlers and returns.
  void Start();

  /// Initiates teardown: no new connections, live ones unblocked. Returns
  /// without waiting (a handler thread may call this — the `shutdown`
  /// verb's path — without deadlocking on itself).
  void RequestShutdown();

  /// Blocks until every handler has exited.
  void Wait();

  /// RequestShutdown + Wait, for external callers.
  void Shutdown();

  /// Handles one already-parsed request line (exposed for tests; the
  /// connection handlers funnel through this). Always returns a response
  /// line. Sets `*shutdown_requested` when the verb was `shutdown`.
  std::string HandleLine(const std::string& line, bool* shutdown_requested);

 private:
  /// Accepts and serves connections until the transport shuts down.
  void HandlerLoop(size_t slot);
  /// Serves `connection` in `slot` until EOF or the `shutdown` verb.
  void Serve(size_t slot, std::unique_ptr<Connection> connection);

  SessionManager* manager_;
  std::unique_ptr<Transport> transport_;

  std::mutex mutex_;
  /// Signaled by RequestShutdown; cuts a handler's accept backoff short.
  std::condition_variable stopped_;
  /// The connection handler i is serving, if any, so RequestShutdown can
  /// unblock its reads. Borrowed: the handler owns its connection and
  /// clears the slot before destroying it.
  std::vector<Connection*> connections_;
  bool stopping_ = false;
  std::vector<std::thread> handlers_;
  /// Serializes Wait/Shutdown callers around the joins.
  std::mutex wait_mutex_;
};

}  // namespace jim::serve

#endif  // JIM_SERVE_SERVER_H_
