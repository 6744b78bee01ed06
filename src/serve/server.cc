#include "serve/server.h"

#include <functional>
#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace jim::serve {

namespace {

std::string OkLine(const std::function<void(util::JsonWriter&)>& fill) {
  util::JsonWriter json;
  json.BeginObject();
  json.KeyValue("ok", true);
  fill(json);
  json.EndObject();
  return json.str();
}

}  // namespace

Server::Server(SessionManager* manager, std::unique_ptr<Transport> transport,
               ServerOptions options)
    : manager_(manager),
      transport_(std::move(transport)),
      connections_(options.max_connections, nullptr) {
  JIM_CHECK(options.max_connections >= 1 &&
            options.max_connections <= kMaxConnections)
      << "max_connections out of range: " << options.max_connections;
}

Server::~Server() { Shutdown(); }

void Server::Start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!handlers_.empty()) return;
  for (size_t slot = 0; slot < connections_.size(); ++slot) {
    handlers_.emplace_back([this, slot] { HandlerLoop(slot); });
  }
}

void Server::HandlerLoop(size_t slot) {
  while (true) {
    util::StatusOr<std::unique_ptr<Connection>> accepted =
        transport_->Accept();
    if (accepted.ok()) {
      Serve(slot, std::move(accepted).value());
    } else if (accepted.status().code() == util::StatusCode::kUnavailable) {
      // Transient (EMFILE etc.); the listener is still up. Back off so a
      // failure that persists does not spin a core.
      std::unique_lock<std::mutex> lock(mutex_);
      if (util::WaitForMicros(stopped_, lock, kAcceptRetryDelayMicros,
                              [this] { return stopping_; })) {
        return;
      }
    } else {
      // kOutOfRange is the clean shutdown/exhaustion verdict; anything else
      // is worth a log line but ends the loop the same way.
      if (accepted.status().code() != util::StatusCode::kOutOfRange) {
        JIM_LOG(kWarning) << "serve: accept failed: "
                      << accepted.status().ToString();
      }
      return;
    }
  }
}

void Server::Serve(size_t slot, std::unique_ptr<Connection> connection) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    connections_[slot] = connection.get();
    if (stopping_) connection->ShutdownNow();
  }
  bool shutdown_requested = false;
  while (!shutdown_requested) {
    util::StatusOr<std::string> line = connection->ReadLine();
    if (!line.ok()) {
      // An over-long line cannot be framed past: answer it once, then close.
      if (line.status().code() == util::StatusCode::kResourceExhausted) {
        JIM_COUNT(obs::kCounterServeRequests);
        JIM_COUNT(obs::kCounterServeRequestErrors);
        (void)connection->WriteLine(ErrorLine(line.status()));
      }
      break;
    }
    if (line.value().empty()) continue;  // blank lines between requests
    std::string response = HandleLine(line.value(), &shutdown_requested);
    if (!connection->WriteLine(response).ok()) break;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    connections_[slot] = nullptr;
  }
  connection.reset();
  // RequestShutdown only after the connection is deregistered and the
  // response flushed: the shutdown verb's client gets its "ok" line.
  if (shutdown_requested) RequestShutdown();
}

std::string Server::HandleLine(const std::string& line,
                               bool* shutdown_requested) {
  JIM_COUNT(obs::kCounterServeRequests);
  util::StatusOr<Request> parsed = ParseRequest(line);
  if (!parsed.ok()) {
    JIM_COUNT(obs::kCounterServeRequestErrors);
    return ErrorLine(parsed.status());
  }
  const Request& request = parsed.value();
  const std::string& verb = request.verb;

  util::Status error = util::OkStatus();
  std::string response;

  if (verb == "ping") {
    response = OkLine([](util::JsonWriter& json) {
      json.KeyValue("verb", "ping");
    });
  } else if (verb == "shutdown") {
    *shutdown_requested = true;
    response = OkLine([](util::JsonWriter& json) {
      json.KeyValue("verb", "shutdown");
    });
  } else if (verb == "stats") {
    SessionManager::Stats stats = manager_->GetStats();
    response = OkLine([&](util::JsonWriter& json) {
      json.KeyValue("live", stats.live);
      json.KeyValue("created", static_cast<int64_t>(stats.created));
      json.KeyValue("recovered", static_cast<int64_t>(stats.recovered));
      json.KeyValue("evicted", static_cast<int64_t>(stats.evicted));
      json.KeyValue("rejected", static_cast<int64_t>(stats.rejected));
    });
  } else if (verb == "create") {
    auto created = manager_->Create(request.instance, request.strategy,
                                    request.goal, request.seed,
                                    request.max_steps);
    if (!created.ok()) {
      error = created.status();
    } else {
      response = OkLine([&](util::JsonWriter& json) {
        json.KeyValue("session", created->session_id);
        json.KeyValue("num_tuples", created->num_tuples);
        json.KeyValue("num_classes", created->num_classes);
        json.KeyValue("done", created->done);
      });
    }
  } else if (verb == "suggest" || verb == "label" || verb == "status" ||
             verb == "result" || verb == "close") {
    if (request.session.empty()) {
      error = util::InvalidArgumentError(
          "request is missing the 'session' member");
    } else if (verb == "suggest") {
      auto suggested = manager_->Suggest(request.session);
      if (!suggested.ok()) {
        error = suggested.status();
      } else {
        response = OkLine([&](util::JsonWriter& json) {
          json.KeyValue("done", suggested->done);
          json.KeyValue("step", suggested->step);
          if (!suggested->done) {
            json.KeyValue("class", suggested->class_id);
            json.KeyValue("tuple", suggested->tuple_index);
            json.KeyValue("size", suggested->class_size);
            json.Key("values");
            json.BeginArray();
            for (const std::string& value : suggested->values) {
              json.Value(value);
            }
            json.EndArray();
          }
        });
      }
    } else if (verb == "label") {
      if (!request.has_class_id || !request.has_answer) {
        error = util::InvalidArgumentError(
            "label needs 'class' and 'answer' members");
      } else {
        auto labeled = manager_->Label(request.session, request.class_id,
                                       request.answer);
        if (!labeled.ok()) {
          error = labeled.status();
        } else {
          response = OkLine([&](util::JsonWriter& json) {
            json.KeyValue("step", labeled->step);
            json.KeyValue("pruned_classes", labeled->pruned_classes);
            json.KeyValue("pruned_tuples", labeled->pruned_tuples);
            json.KeyValue("wasted", labeled->wasted);
            json.KeyValue("done", labeled->done);
          });
        }
      }
    } else if (verb == "status") {
      auto status = manager_->Status(request.session);
      if (!status.ok()) {
        error = status.status();
      } else {
        response = OkLine([&](util::JsonWriter& json) {
          json.KeyValue("steps", status->steps);
          json.KeyValue("done", status->done);
          json.KeyValue("num_tuples", status->num_tuples);
          json.KeyValue("num_classes", status->num_classes);
          json.KeyValue("informative_classes", status->informative_classes);
          json.KeyValue("informative_tuples", status->informative_tuples);
          json.KeyValue("strategy", status->strategy);
          json.KeyValue("instance", status->instance);
        });
      }
    } else if (verb == "result") {
      auto result = manager_->Result(request.session);
      if (!result.ok()) {
        error = result.status();
      } else {
        response = OkLine([&](util::JsonWriter& json) {
          json.KeyValue("done", result->done);
          json.KeyValue("predicate", result->predicate);
          json.KeyValue("has_goal", result->has_goal);
          if (result->has_goal) {
            json.KeyValue("identified_goal", result->identified_goal);
          }
        });
      }
    } else {  // close
      util::Status closed = manager_->Close(request.session);
      if (!closed.ok()) {
        error = closed;
      } else {
        response = OkLine([&](util::JsonWriter& json) {
          json.KeyValue("session", request.session);
          json.KeyValue("closed", true);
        });
      }
    }
  } else {
    error = util::InvalidArgumentError(
        util::StrFormat("unknown verb '%s'", verb.c_str()));
  }

  if (!error.ok()) {
    JIM_COUNT(obs::kCounterServeRequestErrors);
    return ErrorLine(error);
  }
  return response;
}

void Server::RequestShutdown() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) return;
  stopping_ = true;
  stopped_.notify_all();
  transport_->ShutdownNow();
  for (Connection* connection : connections_) {
    if (connection != nullptr) connection->ShutdownNow();
  }
}

void Server::Wait() {
  std::lock_guard<std::mutex> lock(wait_mutex_);
  for (std::thread& handler : handlers_) {
    if (handler.joinable()) handler.join();
  }
}

void Server::Shutdown() {
  RequestShutdown();
  Wait();
}

}  // namespace jim::serve
