#include "serve/client.h"

#include "util/json_writer.h"

namespace jim::serve {

namespace {

std::string SessionVerbLine(std::string_view verb,
                            const std::string& session) {
  util::JsonWriter json;
  json.BeginObject();
  json.KeyValue("verb", verb);
  json.KeyValue("session", session);
  json.EndObject();
  return json.str();
}

}  // namespace

std::string SuggestLine(const std::string& session) {
  return SessionVerbLine("suggest", session);
}

std::string LabelLine(const std::string& session, uint64_t class_id,
                      bool answer) {
  util::JsonWriter json;
  json.BeginObject();
  json.KeyValue("verb", "label");
  json.KeyValue("session", session);
  json.KeyValue("class", class_id);
  json.KeyValue("answer", answer);
  json.EndObject();
  return json.str();
}

std::string ResultLine(const std::string& session) {
  return SessionVerbLine("result", session);
}

std::string CloseLine(const std::string& session) {
  return SessionVerbLine("close", session);
}

util::StatusOr<Client> Client::ConnectTcp(uint16_t port) {
  ASSIGN_OR_RETURN(std::unique_ptr<Connection> connection,
                   serve::ConnectTcp(port));
  return Client(std::move(connection));
}

util::StatusOr<std::string> Client::CallRaw(const std::string& request_line) {
  RETURN_IF_ERROR(connection_->WriteLine(request_line));
  return connection_->ReadLine();
}

util::StatusOr<util::JsonValue> Client::Call(const std::string& request_line) {
  ASSIGN_OR_RETURN(std::string response_line, CallRaw(request_line));
  ASSIGN_OR_RETURN(util::JsonValue response, util::ParseJson(response_line));
  if (!response.is_object()) {
    return util::InternalError("response is not a JSON object");
  }
  if (!response.GetBool("ok", false)) {
    return StatusFromErrorName(response.GetString("error", "INTERNAL"),
                               response.GetString("message", response_line));
  }
  return response;
}

util::StatusOr<std::string> Client::Create(const Request& create_request) {
  Request request = create_request;
  request.verb = "create";
  ASSIGN_OR_RETURN(util::JsonValue response,
                   Call(RequestToLine(request)));
  std::string session = response.GetString("session", "");
  if (session.empty()) {
    return util::InternalError("create response carries no session id");
  }
  return session;
}

util::Status Client::Close(const std::string& session) {
  util::StatusOr<util::JsonValue> response = Call(CloseLine(session));
  return response.ok() ? util::OkStatus() : response.status();
}

}  // namespace jim::serve
