#ifndef JIM_SERVE_PROTOCOL_H_
#define JIM_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace jim::serve {

/// One request of the newline-delimited-JSON serving protocol. Every
/// request is a single-line JSON object with a `verb` member; the other
/// members a verb reads are documented in src/serve/README.md:
///
///   {"verb":"create","instance":"travel.jimc","strategy":"lookahead-entropy",
///    "goal":"To=City","seed":7,"max_steps":64}
///   {"verb":"suggest","session":"s1"}
///   {"verb":"label","session":"s1","class":12,"answer":true}
///   {"verb":"status","session":"s1"}   ... likewise result / close
///   {"verb":"ping"} {"verb":"stats"} {"verb":"shutdown"}
///
/// Responses are single-line JSON objects with an `ok` member; errors carry
/// the stable StatusCode name plus the message:
///   {"ok":false,"error":"RESOURCE_EXHAUSTED","message":"..."}
struct Request {
  std::string verb;
  std::string session;
  std::string instance;  ///< empty = the daemon's default instance
  std::string strategy = "lookahead-entropy";
  std::string goal;      ///< optional reference goal (enables goal checks)
  uint64_t seed = 1;
  uint64_t max_steps = 0;  ///< 0 = the daemon's default per-session cap
  uint64_t class_id = 0;
  bool has_class_id = false;
  bool answer = false;
  bool has_answer = false;
};

/// Parses one request line. kInvalidArgument on malformed JSON, a missing /
/// non-string `verb`, or a wrongly-typed member.
util::StatusOr<Request> ParseRequest(std::string_view line);

/// Serializes `request` back to a protocol line (used by the client driver;
/// only members that deviate from their defaults are emitted, except that a
/// `create` line always carries `strategy` and `seed`). ParseRequest of the
/// line yields `request` again, member for member.
std::string RequestToLine(const Request& request);

/// The error-response line for `status`:
///   {"ok":false,"error":"<CODE>","message":"<message>"}
std::string ErrorLine(const util::Status& status);

/// Maps an error-response object's `error` name back to a typed Status
/// (inverse of ErrorLine; unknown names map to kInternal).
util::Status StatusFromErrorName(std::string_view name, std::string message);

}  // namespace jim::serve

#endif  // JIM_SERVE_PROTOCOL_H_
