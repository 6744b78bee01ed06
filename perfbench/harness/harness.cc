#include "harness/harness.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "core/strategies.h"
#include "harness/goal_oracle.h"
#include "harness/stats.h"
#include "serve/checkpoint.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session_manager.h"
#include "serve/transport.h"
#include "util/json_reader.h"
#include "util/string_util.h"

namespace perfbench {

using jim::util::Status;
using jim::util::StatusOr;

namespace {

constexpr char kStrategy[] = "lookahead-entropy";
/// Questions per latency and throughput block.
constexpr size_t kBlockQuestions = BlockQuantiles::kMinBlock;
/// FloorMap keys of the round trips that carry a question: `create` + first
/// `suggest`; `label` + next `suggest`; a `label` that ends the session.
/// The last two are followed by the session state after the label.
constexpr char kFirstKey[] = "first";
constexpr char kNextKey[] = "next:";
constexpr char kLastKey[] = "last:";

double Micros(int64_t nanos) { return static_cast<double>(nanos) * 1e-3; }

template <typename T>
void Append(std::vector<T>& into, const std::vector<T>& from) {
  into.insert(into.end(), from.begin(), from.end());
}

}  // namespace

/// The traced phase's twins. The twin daemon is a second SessionManager
/// behind a Server whose HandleLine the clients call directly with the same
/// request lines they send the real daemon; the twin prototype seeds one
/// engine + strategy twin per session, which replays the same labels
/// serially so each layer's entry point can be timed on its own.
struct TwinDaemon {
  explicit TwinDaemon(const std::string& checkpoint_dir)
      : memory(checkpoint_dir), env(&memory) {}

  MemoryDirEnv memory;
  CountingEnv env;
  std::istringstream in;
  std::ostringstream out;
  std::unique_ptr<jim::serve::SessionManager> manager;
  std::unique_ptr<jim::serve::Server> server;  ///< borrows manager, in, out
  std::shared_ptr<const jim::core::InferenceEngine> prototype;
};

/// A twin daemon over `store`, with its checkpoints (if `checkpoint_dir`
/// is set) in memory beside the real daemon's.
StatusOr<std::unique_ptr<TwinDaemon>> MakeTwinDaemon(
    const std::string& checkpoint_dir,
    const std::shared_ptr<const jim::core::TupleStore>& store) {
  const std::string twin_dir =
      checkpoint_dir.empty() ? "" : checkpoint_dir + "-twin";
  auto twin = std::make_unique<TwinDaemon>(twin_dir);
  jim::serve::ServeOptions options;
  options.env = &twin->env;
  options.checkpoint_dir = twin_dir;
  options.default_instance = kInstanceName;
  twin->manager =
      std::make_unique<jim::serve::SessionManager>(std::move(options));
  twin->manager->RegisterInstance(kInstanceName, store);
  ASSIGN_OR_RETURN(std::unique_ptr<jim::serve::Transport> transport,
                   jim::serve::StreamTransport(twin->in, twin->out));
  jim::serve::ServerOptions server_options;
  server_options.max_connections = 1;
  twin->server = std::make_unique<jim::serve::Server>(
      twin->manager.get(), std::move(transport), server_options);
  twin->prototype = std::make_shared<jim::core::InferenceEngine>(store);
  return twin;
}

struct TwinSession {
  explicit TwinSession(const jim::core::InferenceEngine& prototype)
      : engine(prototype) {}

  std::string id;  ///< the twin daemon's id for this session
  jim::core::InferenceEngine engine;
  std::unique_ptr<jim::core::Strategy> strategy;
  jim::serve::SessionCheckpoint record;
  size_t pending_pick = 0;
};

void TraceTotals::Merge(const TraceTotals& other) {
  Append(transport_self_us, other.transport_self_us);
  Append(parse_us, other.parse_us);
  Append(handle_us, other.handle_us);
  Append(session_manager_self_us, other.session_manager_self_us);
  Append(pick_first_us, other.pick_first_us);
  Append(pick_next_us, other.pick_next_us);
  Append(label_us, other.label_us);
  Append(clone_us, other.clone_us);
  Append(encode_us, other.encode_us);
  lines += other.lines;
  bytes += other.bytes;
  picks += other.picks;
  informative += other.informative;
  evaluated += other.evaluated;
  labels += other.labels;
  pruned_classes += other.pruned_classes;
  question_nanos += other.question_nanos;
  layer_nanos += other.layer_nanos;
  live_sessions_max = std::max(live_sessions_max, other.live_sessions_max);
  twin_mismatches += other.twin_mismatches;
}

/// One closed-loop client: its own connection and live sessions. Waits for
/// each reply before sending the next request; think time is zero.
class ClientLoop {
 public:
  ClientLoop(Harness& harness, const PhaseOptions& options, TwinDaemon* twin,
             PhaseResult& out)
      : h_(harness), options_(options), twin_(twin), out_(out) {
    out_.questions_by_plan.assign(h_.spec_.pool, -1);
    out_.sessions_by_plan.assign(h_.spec_.pool, 0);
    out_.predicate_by_plan.assign(h_.spec_.pool, "");
    if (h_.spec_.time_by_state) out_.keys_by_plan.assign(h_.spec_.pool, {});
  }

  Status Run();

 private:
  /// The question a live session is waiting on: the last suggest reply.
  struct Pending {
    uint64_t class_id = 0;
    size_t tuple = 0;
    std::string raw;
  };
  struct Live {
    size_t plan = 0;
    std::string id;
    int64_t questions = 0;
    Pending pending;
    std::unique_ptr<TwinSession> twin;
    /// With time_by_state: the session state (the labels sent so far), and
    /// this play's question round trips keyed as in FloorMap.
    std::string state;
    std::vector<std::pair<std::string, double>> timed;
  };
  struct Reply {
    std::string raw;
    jim::util::JsonValue json;
    int64_t rtt = 0;
    int64_t end = 0;
  };
  /// What tracing one request measured besides its round trip.
  struct Traced {
    int64_t parse = 0;
    int64_t handle = 0;
    int64_t io = 0;
    std::string twin_raw;
  };

  Status Connect(uint16_t port);
  StatusOr<Reply> Call(const std::string& line);
  bool MayStart(size_t* plan);
  Status StartSession(size_t plan);
  Status Step(Live& session, bool* finished);
  Status Finish(Live& session);
  Status Park();
  bool InWindow(int64_t end) const {
    return options_.record && end <= h_.deadline_.load();
  }
  static Status ReadPending(Reply& reply, Pending* pending, bool* done);

  Traced TraceRequest(const std::string& real_line,
                      const std::string& twin_line);
  /// Splits one traced request into layer self times; `work` is the time
  /// the engine/strategy twins measured for it.
  void Account(const Reply& reply, const Traced& traced, int64_t work,
               int64_t* layers);
  void CheckTwin(const Reply& reply, const Traced& traced);
  int64_t TwinPick(TwinSession& twin, uint64_t real_class, bool first);
  int64_t TwinLabel(TwinSession& twin, uint64_t class_id, bool answer);

  Harness& h_;
  const PhaseOptions& options_;
  TwinDaemon* twin_;
  PhaseResult& out_;
  std::optional<jim::serve::Client> client_;
  std::vector<Live> live_;
  /// Drops the open throughput block, at a restart or the window's end.
  void EndBlock() {
    block_start_ = -1;
    block_acks_ = 0;
  }

  /// The throughput block being counted: when it started (-1: not yet) and
  /// the labels acknowledged in it.
  int64_t block_start_ = -1;
  size_t block_acks_ = 0;
};

Status ClientLoop::Connect(uint16_t port) {
  ASSIGN_OR_RETURN(jim::serve::Client client,
                   jim::serve::Client::ConnectTcp(port));
  client_.emplace(std::move(client));
  return jim::util::OkStatus();
}

StatusOr<ClientLoop::Reply> ClientLoop::Call(const std::string& line) {
  Reply reply;
  const int64_t start = NowNanos();
  StatusOr<std::string> raw = client_->CallRaw(line);
  reply.end = NowNanos();
  reply.rtt = reply.end - start;
  ++out_.requests;
  if (!raw.ok()) {
    ++out_.failed;
    return raw.status();
  }
  reply.raw = std::move(raw).value();
  if (options_.traced) {
    ++out_.trace.lines;
    out_.trace.bytes += line.size() + reply.raw.size() + 2;  // + newlines
  }
  StatusOr<jim::util::JsonValue> json = jim::util::ParseJson(reply.raw);
  if (!json.ok() || !json->is_object() || !json->GetBool("ok", false)) {
    ++out_.failed;
    return jim::util::InternalError(jim::util::StrFormat(
        "request %s failed: %s", line.c_str(), reply.raw.c_str()));
  }
  reply.json = std::move(json).value();
  return reply;
}

Status ClientLoop::ReadPending(Reply& reply, Pending* pending, bool* done) {
  *done = reply.json.GetBool("done", false);
  if (*done) return jim::util::OkStatus();
  const int64_t class_id = reply.json.GetInt("class", -1);
  const int64_t tuple = reply.json.GetInt("tuple", -1);
  if (class_id < 0 || tuple < 0) {
    return jim::util::InternalError("suggest reply without class or tuple: " +
                                    reply.raw);
  }
  pending->class_id = static_cast<uint64_t>(class_id);
  pending->tuple = static_cast<size_t>(tuple);
  pending->raw = std::move(reply.raw);
  return jim::util::OkStatus();
}

bool ClientLoop::MayStart(size_t* plan) {
  if (h_.restart_requested_.load()) return false;
  const bool window_open = NowNanos() < h_.deadline_.load();
  if (!window_open && h_.started_.load() >= options_.min_sessions) {
    return false;
  }
  const size_t k = h_.started_.fetch_add(1);
  if (options_.session_budget != 0 && k >= options_.session_budget) {
    return false;
  }
  if (!window_open && k >= options_.min_sessions) return false;
  *plan = k % h_.spec_.pool;
  return true;
}

ClientLoop::Traced ClientLoop::TraceRequest(const std::string& real_line,
                                            const std::string& twin_line) {
  Traced traced;
  int64_t start = NowNanos();
  StatusOr<jim::serve::Request> parsed = jim::serve::ParseRequest(real_line);
  traced.parse = NowNanos() - start;
  if (!parsed.ok()) ++out_.trace.twin_mismatches;
  const int64_t io_before = CountingEnv::ThreadWriteNanos();
  bool shutdown_requested = false;
  start = NowNanos();
  traced.twin_raw = twin_->server->HandleLine(twin_line, &shutdown_requested);
  traced.handle = NowNanos() - start;
  traced.io = CountingEnv::ThreadWriteNanos() - io_before;
  return traced;
}

void ClientLoop::Account(const Reply& reply, const Traced& traced,
                         int64_t work, int64_t* layers) {
  // The two residual layers are floored at zero per request, so coverage
  // above 1 shows by how much the twins overstate the real path.
  const int64_t transport = std::max<int64_t>(0, reply.rtt - traced.handle);
  const int64_t manager =
      std::max<int64_t>(0, traced.handle - traced.parse - work - traced.io);
  TraceTotals& trace = out_.trace;
  trace.transport_self_us.push_back(Micros(transport));
  trace.parse_us.push_back(Micros(traced.parse));
  trace.handle_us.push_back(Micros(traced.handle));
  trace.session_manager_self_us.push_back(Micros(manager));
  *layers += transport + traced.parse + manager + work + traced.io;
}

void ClientLoop::CheckTwin(const Reply& reply, const Traced& traced) {
  if (traced.twin_raw != reply.raw) ++out_.trace.twin_mismatches;
}

int64_t ClientLoop::TwinPick(TwinSession& twin, uint64_t real_class,
                             bool first) {
  TraceTotals& trace = out_.trace;
  const size_t informative = twin.engine.InformativeClasses().size();
  const int64_t start = NowNanos();
  const size_t pick = twin.strategy->PickClass(twin.engine);
  const int64_t elapsed = NowNanos() - start;
  const auto* lookahead =
      dynamic_cast<const jim::core::LookaheadStrategy*>(twin.strategy.get());
  ++trace.picks;
  trace.informative += informative;
  trace.evaluated += lookahead != nullptr ? lookahead->last_evaluated()
                                          : informative;
  if (pick != real_class) ++trace.twin_mismatches;
  twin.pending_pick = pick;
  (first ? trace.pick_first_us : trace.pick_next_us)
      .push_back(Micros(elapsed));
  return elapsed;
}

int64_t ClientLoop::TwinLabel(TwinSession& twin, uint64_t class_id,
                              bool answer) {
  TraceTotals& trace = out_.trace;
  jim::serve::CheckpointStep step;
  step.suggested_class = static_cast<uint32_t>(twin.pending_pick);
  step.class_id = static_cast<uint32_t>(class_id);
  step.tuple_index = static_cast<uint32_t>(
      twin.engine.tuple_class(class_id).tuple_indices[0]);
  step.answer = answer ? 1 : 0;
  twin.record.steps.push_back(step);
  int64_t encode = 0;
  if (h_.spec_.checkpoints) {
    const int64_t start = NowNanos();
    const std::string bytes = jim::serve::EncodeCheckpoint(twin.record);
    encode = NowNanos() - start;
    if (bytes.empty()) ++trace.twin_mismatches;
    trace.encode_us.push_back(Micros(encode));
  }

  // As SessionManager::Label does: label a copy, then commit it.
  const size_t before = twin.engine.GetStats().informative_classes;
  const int64_t start = NowNanos();
  jim::core::InferenceEngine trial = twin.engine;
  const Status labeled = trial.SubmitClassLabel(
      class_id,
      answer ? jim::core::Label::kPositive : jim::core::Label::kNegative);
  twin.engine = std::move(trial);
  const int64_t elapsed = NowNanos() - start;
  if (!labeled.ok()) ++trace.twin_mismatches;
  ++trace.labels;
  trace.pruned_classes += before - twin.engine.GetStats().informative_classes;
  trace.label_us.push_back(Micros(elapsed));
  return elapsed + encode;
}

Status ClientLoop::StartSession(size_t plan_index) {
  const SessionPlan& plan = h_.prepared_.plans[plan_index];
  jim::serve::Request create;
  create.verb = "create";
  create.strategy = kStrategy;
  create.seed = plan.seed;
  const std::string create_line = jim::serve::RequestToLine(create);
  ASSIGN_OR_RETURN(Reply created, Call(create_line));
  Live session;
  session.plan = plan_index;
  session.id = created.json.GetString("session", "");
  if (session.id.empty()) {
    return jim::util::InternalError("create reply without a session id");
  }

  int64_t layers = 0;
  if (options_.traced) {
    const Traced traced = TraceRequest(create_line, create_line);
    StatusOr<jim::util::JsonValue> twin_reply =
        jim::util::ParseJson(traced.twin_raw);
    const int64_t start = NowNanos();
    auto twin = std::make_unique<TwinSession>(*twin_->prototype);
    const int64_t clone = NowNanos() - start;
    twin->id = twin_reply.ok() ? twin_reply->GetString("session", "") : "";
    if (twin->id.empty()) ++out_.trace.twin_mismatches;
    ASSIGN_OR_RETURN(twin->strategy,
                     jim::core::MakeStrategy(kStrategy, plan.seed));
    // Serial scoring, as the daemon's default options score, so the
    // evaluated-candidate counts are exact.
    if (auto* lookahead = dynamic_cast<jim::core::LookaheadStrategy*>(
            twin->strategy.get())) {
      lookahead->set_thread_pool(nullptr);
    }
    twin->record.session_id = session.id;
    twin->record.instance = kInstanceName;
    twin->record.strategy = kStrategy;
    twin->record.seed = plan.seed;
    twin->record.max_steps = jim::serve::ServeOptions().default_max_steps;
    out_.trace.clone_us.push_back(Micros(clone));
    Account(created, traced, clone, &layers);
    out_.trace.live_sessions_max =
        std::max(out_.trace.live_sessions_max,
                 twin_->manager->GetStats().live);
    session.twin = std::move(twin);
  }

  const std::string suggest_line = jim::serve::SuggestLine(session.id);
  ASSIGN_OR_RETURN(Reply suggested, Call(suggest_line));
  const int64_t question = created.rtt + suggested.rtt;
  const int64_t end = suggested.end;
  bool done = false;
  if (options_.traced) {
    const Traced traced = TraceRequest(
        suggest_line, jim::serve::SuggestLine(session.twin->id));
    CheckTwin(suggested, traced);
    int64_t pick = 0;
    if (!suggested.json.GetBool("done", false)) {
      pick = TwinPick(*session.twin,
                      static_cast<uint64_t>(suggested.json.GetInt("class", -1)),
                      /*first=*/true);
    }
    Account(suggested, traced, pick, &layers);
    out_.trace.question_nanos += question;
    out_.trace.layer_nanos += layers;
  }
  RETURN_IF_ERROR(ReadPending(suggested, &session.pending, &done));
  if (h_.spec_.time_by_state) {
    session.timed.emplace_back(kFirstKey, Micros(question));
  } else if (InWindow(end)) {
    out_.first_question_us.Add(Micros(question));
  }
  if (done) return Finish(session);
  live_.push_back(std::move(session));
  return jim::util::OkStatus();
}

Status ClientLoop::Step(Live& session, bool* finished) {
  *finished = false;
  const SessionPlan& plan = h_.prepared_.plans[session.plan];
  // The simulated user answers outside the timed region.
  const bool answer =
      GoalSelectsTuple(*h_.prepared_.store, plan.goal, session.pending.tuple);
  const uint64_t class_id = session.pending.class_id;
  const std::string label_line =
      jim::serve::LabelLine(session.id, class_id, answer);
  ASSIGN_OR_RETURN(Reply labeled, Call(label_line));
  ++session.questions;
  if (InWindow(labeled.end)) {
    if (block_start_ < 0) block_start_ = labeled.end - labeled.rtt;
    if (++block_acks_ == kBlockQuestions) {
      out_.block_rates.push_back(
          static_cast<double>(block_acks_) * 1e9 /
          static_cast<double>(labeled.end - block_start_));
      block_start_ = labeled.end;
      block_acks_ = 0;
    }
  } else {
    EndBlock();
  }
  const bool label_done = labeled.json.GetBool("done", false);
  if (h_.spec_.time_by_state) {
    session.state += jim::util::StrFormat(
        "%llu%c", static_cast<unsigned long long>(class_id),
        answer ? '+' : '-');
    if (label_done) {
      session.timed.emplace_back(kLastKey + session.state,
                                 Micros(labeled.rtt));
    }
  }

  int64_t layers = 0;
  int64_t question = labeled.rtt;
  if (options_.traced) {
    const Traced traced = TraceRequest(
        label_line,
        jim::serve::LabelLine(session.twin->id, class_id, answer));
    CheckTwin(labeled, traced);
    const int64_t work = TwinLabel(*session.twin, class_id, answer);
    Account(labeled, traced, work, &layers);
  }
  bool done = label_done;
  if (!label_done) {
    const std::string suggest_line = jim::serve::SuggestLine(session.id);
    ASSIGN_OR_RETURN(Reply suggested, Call(suggest_line));
    question += suggested.rtt;
    if (options_.traced) {
      const Traced traced = TraceRequest(
          suggest_line, jim::serve::SuggestLine(session.twin->id));
      CheckTwin(suggested, traced);
      int64_t pick = 0;
      if (!suggested.json.GetBool("done", false)) {
        pick = TwinPick(
            *session.twin,
            static_cast<uint64_t>(suggested.json.GetInt("class", -1)),
            /*first=*/false);
      }
      Account(suggested, traced, pick, &layers);
    }
    const int64_t end = suggested.end;
    RETURN_IF_ERROR(ReadPending(suggested, &session.pending, &done));
    if (h_.spec_.time_by_state) {
      session.timed.emplace_back(kNextKey + session.state, Micros(question));
    } else if (InWindow(end)) {
      out_.next_question_us.Add(Micros(question));
    }
  }
  if (options_.traced) {
    out_.trace.question_nanos += question;
    out_.trace.layer_nanos += layers;
  }
  if (!done) return jim::util::OkStatus();
  *finished = true;
  return Finish(session);
}

Status ClientLoop::Finish(Live& session) {
  const std::string result_line = jim::serve::ResultLine(session.id);
  ASSIGN_OR_RETURN(Reply result, Call(result_line));
  if (!result.json.GetBool("done", false)) {
    return jim::util::InternalError("session ended without being done: " +
                                    result.raw);
  }
  const std::string predicate = result.json.GetString("predicate", "");
  if (options_.traced) {
    CheckTwin(result,
              TraceRequest(result_line,
                           jim::serve::ResultLine(session.twin->id)));
    bool shutdown_requested = false;
    twin_->server->HandleLine(jim::serve::CloseLine(session.twin->id),
                              &shutdown_requested);
  }
  RETURN_IF_ERROR(Call(jim::serve::CloseLine(session.id)).status());
  // Every play of a recording phase counts, also one finished after the
  // window closed, so every goal of the pool has its questions timed.
  if (h_.spec_.time_by_state && options_.record) {
    std::vector<std::string>& keys = out_.keys_by_plan[session.plan];
    const bool first_play = keys.empty();
    for (const auto& [key, us] : session.timed) {
      out_.state_floors.Add(key, us);
      if (first_play) keys.push_back(key);
    }
  }
  ++out_.sessions;
  ++out_.sessions_by_plan[session.plan];
  int64_t& played = out_.questions_by_plan[session.plan];
  std::string& ended = out_.predicate_by_plan[session.plan];
  if (played >= 0 && (played != session.questions || ended != predicate)) {
    ++out_.nondeterministic_plays;
  }
  played = session.questions;
  ended = predicate;
  return jim::util::OkStatus();
}

Status ClientLoop::Park() {
  EndBlock();
  uint16_t port = 0;
  {
    std::unique_lock<std::mutex> lock(h_.mutex_);
    const uint64_t seen = h_.epoch_;
    ++h_.parked_clients_;
    h_.changed_.notify_all();
    h_.changed_.wait(lock, [&] {
      return h_.epoch_ != seen || !h_.restart_requested_.load();
    });
    --h_.parked_clients_;
    if (h_.epoch_ == seen) return jim::util::OkStatus();
    port = h_.port_;
  }
  RETURN_IF_ERROR(Connect(port));
  // Each recovered session must ask exactly the question it asked before
  // the restart (the determinism contract of checkpoint replay). These
  // checks are the harness's, not a user's, so they stay out of the
  // transport counts per question, which then do not depend on how many
  // restarts fell inside the traced pass.
  const uint64_t lines = out_.trace.lines;
  const uint64_t bytes = out_.trace.bytes;
  for (Live& session : live_) {
    ASSIGN_OR_RETURN(Reply again,
                     Call(jim::serve::SuggestLine(session.id)));
    if (again.raw != session.pending.raw) ++out_.recovery_mismatches;
  }
  out_.trace.lines = lines;
  out_.trace.bytes = bytes;
  return jim::util::OkStatus();
}

Status ClientLoop::Run() {
  uint16_t port = 0;
  {
    std::lock_guard<std::mutex> lock(h_.mutex_);
    port = h_.port_;
  }
  RETURN_IF_ERROR(Connect(port));
  size_t next = 0;
  while (true) {
    if (h_.restart_requested_.load()) {
      // Without checkpoints a restart loses live sessions, so those
      // workloads finish theirs first and park between sessions.
      if (h_.spec_.checkpoints || live_.empty()) {
        RETURN_IF_ERROR(Park());
        continue;
      }
    } else {
      size_t plan = 0;
      while (live_.size() < h_.spec_.live_per_client && MayStart(&plan)) {
        RETURN_IF_ERROR(StartSession(plan));
      }
    }
    if (live_.empty()) {
      if (h_.restart_requested_.load()) continue;
      break;
    }
    next %= live_.size();
    bool finished = false;
    RETURN_IF_ERROR(Step(live_[next], &finished));
    if (finished) {
      live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(next));
    } else {
      ++next;
    }
  }
  EndBlock();
  return jim::util::OkStatus();
}

Harness::Harness(const WorkloadSpec& spec, const PreparedWorkload& prepared,
                 CountingEnv* env, std::string checkpoint_dir)
    : spec_(spec),
      prepared_(prepared),
      env_(env),
      checkpoint_dir_(std::move(checkpoint_dir)) {}

Harness::~Harness() { StopDaemon(); }

Status Harness::StartDaemon(double* recover_s) {
  DaemonConfig config;
  config.instance_path = prepared_.instance_path;
  config.checkpoint_dir = checkpoint_dir_;
  config.env = env_;
  ASSIGN_OR_RETURN(daemon_, Daemon::Start(config, recover_s));
  return jim::util::OkStatus();
}

void Harness::StopDaemon() { daemon_.reset(); }

Status Harness::PadSessionIds() {
  ASSIGN_OR_RETURN(jim::serve::Client client,
                   jim::serve::Client::ConnectTcp(daemon_->port()));
  while (true) {
    jim::serve::Request create;
    create.verb = "create";
    ASSIGN_OR_RETURN(std::string id, client.Create(create));
    RETURN_IF_ERROR(client.Close(id));
    ASSIGN_OR_RETURN(int64_t number, jim::util::ParseInt64(id.substr(1)));
    if (number + 1 >= 100) break;
  }
  return jim::util::OkStatus();
}

PhaseResult Harness::RunPhase(const PhaseOptions& options) {
  PhaseResult result;
  // State floors are summarized as one block of every goal's questions.
  const size_t block = spec_.time_by_state ? 0 : kBlockQuestions;
  result.first_question_us = BlockQuantiles(block);
  result.next_question_us = BlockQuantiles(block);
  result.questions_by_plan.assign(spec_.pool, -1);
  if (spec_.time_by_state) result.keys_by_plan.assign(spec_.pool, {});
  result.sessions_by_plan.assign(spec_.pool, 0);
  result.predicate_by_plan.assign(spec_.pool, "");
  if (daemon_ == nullptr) {
    result.errors.push_back("no daemon running");
    return result;
  }

  std::unique_ptr<TwinDaemon> twin;
  if (options.traced) {
    StatusOr<std::unique_ptr<TwinDaemon>> made =
        MakeTwinDaemon(checkpoint_dir_, prepared_.store);
    if (!made.ok()) {
      result.errors.push_back(made.status().ToString());
      return result;
    }
    twin = std::move(made).value();
  }

  started_ = 0;
  restart_requested_ = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    active_clients_ = spec_.clients;
    parked_clients_ = 0;
    port_ = daemon_->port();
  }
  const int64_t start = NowNanos();
  const auto window = static_cast<int64_t>(options.seconds * 1e9);
  deadline_ = window > 0 ? start + window : std::numeric_limits<int64_t>::max();

  std::vector<PhaseResult> per_client(spec_.clients);
  std::vector<Status> statuses(spec_.clients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < spec_.clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLoop loop(*this, options, twin.get(), per_client[c]);
      statuses[c] = loop.Run();
      std::lock_guard<std::mutex> lock(mutex_);
      --active_clients_;
      changed_.notify_all();
    });
  }

  int64_t paused = 0;
  for (size_t r = 0; r < options.restarts; ++r) {
    const size_t parts = options.restarts + 1;
    if (window > 0) {
      const int64_t due = start + paused +
                          window * static_cast<int64_t>(r + 1) /
                              static_cast<int64_t>(parts);
      std::unique_lock<std::mutex> lock(mutex_);
      changed_.wait_until(
          lock,
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due)),
          [&] { return active_clients_ == 0; });
    } else {
      while (started_.load() < options.session_budget * (r + 1) / parts) {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          if (active_clients_ == 0) break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    const int64_t requested = NowNanos();
    std::unique_lock<std::mutex> lock(mutex_);
    if (active_clients_ == 0) break;
    restart_requested_ = true;
    changed_.wait(lock, [&] { return parked_clients_ == active_clients_; });
    if (active_clients_ > 0) {
      const int64_t down = NowNanos();
      daemon_.reset();
      double recover_s = 0;
      const Status restarted = StartDaemon(&recover_s);
      result.restart_s.push_back(static_cast<double>(NowNanos() - down) *
                                 1e-9);
      result.recover_s.push_back(recover_s);
      if (restarted.ok()) {
        port_ = daemon_->port();
      } else {
        result.errors.push_back("restart: " + restarted.ToString());
        port_ = 0;
      }
      ++epoch_;
    }
    restart_requested_ = false;
    changed_.notify_all();
    lock.unlock();
    const int64_t resumed = NowNanos();
    paused += resumed - requested;
    if (window > 0) deadline_ += resumed - requested;
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t c = 0; c < spec_.clients; ++c) {
    const PhaseResult& part = per_client[c];
    if (!statuses[c].ok()) {
      result.errors.push_back(jim::util::StrFormat(
          "client %zu: %s", c, statuses[c].ToString().c_str()));
    }
    result.first_question_us.Merge(part.first_question_us);
    result.next_question_us.Merge(part.next_question_us);
    Append(result.block_rates, part.block_rates);
    result.requests += part.requests;
    result.failed += part.failed;
    result.sessions += part.sessions;
    result.nondeterministic_plays += part.nondeterministic_plays;
    result.recovery_mismatches += part.recovery_mismatches;
    for (size_t p = 0; p < spec_.pool; ++p) {
      const int64_t played = part.questions_by_plan[p];
      if (played < 0) continue;
      int64_t& merged = result.questions_by_plan[p];
      std::string& ended = result.predicate_by_plan[p];
      if (merged >= 0 &&
          (merged != played || ended != part.predicate_by_plan[p])) {
        ++result.nondeterministic_plays;
      }
      merged = played;
      ended = part.predicate_by_plan[p];
      result.sessions_by_plan[p] += part.sessions_by_plan[p];
    }
    result.trace.Merge(part.trace);
    result.state_floors.Merge(part.state_floors);
    for (size_t p = 0; p < part.keys_by_plan.size(); ++p) {
      if (result.keys_by_plan[p].empty()) {
        result.keys_by_plan[p] = part.keys_by_plan[p];
      }
    }
  }

  if (spec_.time_by_state) {
    double questions = 0;
    double seconds = 0;
    for (size_t p = 0; p < spec_.pool; ++p) {
      if (result.keys_by_plan[p].empty()) continue;
      for (const std::string& key : result.keys_by_plan[p]) {
        const double us = result.state_floors.Floor(key);
        seconds += us * 1e-6;
        if (key.rfind(kFirstKey, 0) == 0) result.first_question_us.Add(us);
        if (key.rfind(kNextKey, 0) == 0) result.next_question_us.Add(us);
      }
      questions += static_cast<double>(result.questions_by_plan[p]);
    }
    if (seconds > 0) {
      result.questions_per_s =
          static_cast<double>(spec_.clients) * questions / seconds;
    }
  } else if (!result.block_rates.empty()) {
    result.questions_per_s = static_cast<double>(spec_.clients) *
                             QuietHigh(result.block_rates);
  }

  // Goal identification is checked here, after the clients stopped: the
  // goal never goes to the daemon (whose `result` would then evaluate it
  // over every tuple inside the timed loop), and one check per goal covers
  // every play, since plays of a goal must end with the same predicate.
  for (size_t p = 0; p < spec_.pool; ++p) {
    if (result.sessions_by_plan[p] == 0) continue;
    const jim::core::JoinPredicate& goal = prepared_.plans[p].goal;
    StatusOr<jim::core::JoinPredicate> ended = jim::core::JoinPredicate::Parse(
        goal.schema(), result.predicate_by_plan[p]);
    if (ended.ok() &&
        jim::core::InstanceEquivalent(*prepared_.store, *ended, goal)) {
      result.identified += result.sessions_by_plan[p];
    }
  }
  return result;
}

}  // namespace perfbench
