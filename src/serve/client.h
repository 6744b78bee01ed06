#ifndef JIM_SERVE_CLIENT_H_
#define JIM_SERVE_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "serve/protocol.h"
#include "serve/transport.h"
#include "util/json_reader.h"
#include "util/status.h"

namespace jim::serve {

/// Blocking client driver over one daemon connection — what the e2e tests,
/// the serving bench, and `jim_cli call` drive sessions with. Not
/// thread-safe; open one client per driving thread.
class Client {
 public:
  static util::StatusOr<Client> ConnectTcp(uint16_t port);
  explicit Client(std::unique_ptr<Connection> connection)
      : connection_(std::move(connection)) {}

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// Sends one request line, returns the raw response line (transcript
  /// captures diff these bytes directly).
  util::StatusOr<std::string> CallRaw(const std::string& request_line);

  /// CallRaw + parse. An {"ok":false,...} response comes back as the typed
  /// error it encodes, so callers see daemon-side RESOURCE_EXHAUSTED etc.
  /// as if the manager were in-process.
  util::StatusOr<util::JsonValue> Call(const std::string& request_line);

  /// Convenience verbs. Create returns the minted session id.
  util::StatusOr<std::string> Create(const Request& create_request);
  util::Status Close(const std::string& session);

 private:
  std::unique_ptr<Connection> connection_;
};

/// Request-line builders (also used directly by tests that want to hold
/// raw lines).
std::string SuggestLine(const std::string& session);
std::string LabelLine(const std::string& session, uint64_t class_id,
                      bool answer);
std::string ResultLine(const std::string& session);
std::string CloseLine(const std::string& session);

}  // namespace jim::serve

#endif  // JIM_SERVE_CLIENT_H_
