#include "serve/protocol.h"

#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/string_util.h"

namespace jim::serve {
namespace {

/// Reads an optional string member into `out`; present-but-wrong-kind is a
/// typed error (silent fallbacks hide client bugs).
util::Status ReadString(const util::JsonValue& object, std::string_view key,
                        std::string& out) {
  const util::JsonValue* member = object.Find(key);
  if (member == nullptr) return util::OkStatus();
  if (!member->is_string()) {
    return util::InvalidArgumentError(
        util::StrFormat("request member '%s' must be a string",
                        std::string(key).c_str()));
  }
  out = member->AsString();
  return util::OkStatus();
}

util::Status ReadUint(const util::JsonValue& object, std::string_view key,
                      uint64_t& out, bool& present) {
  const util::JsonValue* member = object.Find(key);
  present = member != nullptr;
  if (member == nullptr) return util::OkStatus();
  if (!member->is_int() || member->AsInt64() < 0) {
    return util::InvalidArgumentError(
        util::StrFormat("request member '%s' must be a non-negative integer",
                        std::string(key).c_str()));
  }
  out = static_cast<uint64_t>(member->AsInt64());
  return util::OkStatus();
}

}  // namespace

util::StatusOr<Request> ParseRequest(std::string_view line) {
  ASSIGN_OR_RETURN(util::JsonValue document, util::ParseJson(line));
  if (!document.is_object()) {
    return util::InvalidArgumentError("request must be a JSON object");
  }
  Request request;
  RETURN_IF_ERROR(ReadString(document, "verb", request.verb));
  if (request.verb.empty()) {
    return util::InvalidArgumentError("request is missing the 'verb' member");
  }
  RETURN_IF_ERROR(ReadString(document, "session", request.session));
  RETURN_IF_ERROR(ReadString(document, "instance", request.instance));
  RETURN_IF_ERROR(ReadString(document, "strategy", request.strategy));
  RETURN_IF_ERROR(ReadString(document, "goal", request.goal));
  bool present = false;
  RETURN_IF_ERROR(ReadUint(document, "seed", request.seed, present));
  RETURN_IF_ERROR(ReadUint(document, "max_steps", request.max_steps, present));
  RETURN_IF_ERROR(
      ReadUint(document, "class", request.class_id, request.has_class_id));
  const util::JsonValue* answer = document.Find("answer");
  if (answer != nullptr) {
    if (!answer->is_bool()) {
      return util::InvalidArgumentError(
          "request member 'answer' must be a boolean");
    }
    request.answer = answer->AsBool();
    request.has_answer = true;
  }
  return request;
}

std::string RequestToLine(const Request& request) {
  util::JsonWriter json;
  json.BeginObject();
  json.KeyValue("verb", request.verb);
  if (!request.session.empty()) json.KeyValue("session", request.session);
  if (!request.instance.empty()) json.KeyValue("instance", request.instance);
  // A create line always spells out its strategy and seed; any other verb
  // ignores them but still round-trips them when they were set.
  const bool create = request.verb == "create";
  const Request defaults;
  if (create || request.strategy != defaults.strategy) {
    json.KeyValue("strategy", request.strategy);
  }
  if (!request.goal.empty()) json.KeyValue("goal", request.goal);
  if (create || request.seed != defaults.seed) {
    json.KeyValue("seed", request.seed);
  }
  if (request.max_steps != 0) json.KeyValue("max_steps", request.max_steps);
  if (request.has_class_id) json.KeyValue("class", request.class_id);
  if (request.has_answer) json.KeyValue("answer", request.answer);
  json.EndObject();
  return json.str();
}

std::string ErrorLine(const util::Status& status) {
  util::JsonWriter json;
  json.BeginObject();
  json.KeyValue("ok", false);
  json.KeyValue("error", util::StatusCodeToString(status.code()));
  json.KeyValue("message", status.message());
  json.EndObject();
  return json.str();
}

util::Status StatusFromErrorName(std::string_view name, std::string message) {
  for (int code = 1; code <= static_cast<int>(util::StatusCode::kUnavailable);
       ++code) {
    auto status_code = static_cast<util::StatusCode>(code);
    if (util::StatusCodeToString(status_code) == name) {
      return util::Status(status_code, std::move(message));
    }
  }
  return util::InternalError(std::move(message));
}

}  // namespace jim::serve
