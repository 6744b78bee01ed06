#include "serve/session_manager.h"

#include <algorithm>
#include <utility>

#include "exec/parallel.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "storage/mapped_store.h"
#include "util/string_util.h"

namespace jim::serve {

namespace {

/// "s<counter>" ids; returns the numeric part, or 0 for foreign ids (a
/// hand-named checkpoint file still recovers, it just never collides with
/// minted ids because the counter only moves up).
uint64_t SessionIdNumber(const std::string& session_id) {
  if (session_id.size() < 2 || session_id[0] != 's') return 0;
  auto parsed = util::ParseInt64(session_id.substr(1));
  if (!parsed.ok() || *parsed < 0) return 0;
  return static_cast<uint64_t>(*parsed);
}

}  // namespace

SessionManager::SessionManager(ServeOptions options)
    : options_(std::move(options)),
      env_(options_.env != nullptr ? options_.env : storage::DefaultEnv()) {}

void SessionManager::RegisterInstance(
    const std::string& name, std::shared_ptr<const core::TupleStore> store) {
  Instance instance;
  instance.prototype = std::make_shared<core::InferenceEngine>(store);
  instance.store = std::move(store);
  std::lock_guard<std::mutex> lock(mutex_);
  instances_[name] = std::move(instance);
}

util::Status SessionManager::EnsureCheckpointDir() {
  return env_->CreateDirectories(options_.checkpoint_dir);
}

util::StatusOr<SessionManager::Instance*> SessionManager::GetOrOpenInstance(
    const std::string& name) {
  auto it = instances_.find(name);
  if (it != instances_.end()) return &it->second;
  ASSIGN_OR_RETURN(std::shared_ptr<const core::TupleStore> store,
                   storage::OpenStore(name, env_));
  Instance instance;
  instance.prototype = std::make_shared<core::InferenceEngine>(store);
  instance.store = std::move(store);
  auto inserted = instances_.emplace(name, std::move(instance));
  return &inserted.first->second;
}

util::StatusOr<std::shared_ptr<SessionManager::Session>>
SessionManager::FindSession(const std::string& session_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return util::NotFoundError(
        util::StrFormat("no session '%s'", session_id.c_str()));
  }
  return it->second;
}

void SessionManager::UpdateLiveGauge() const {
  JIM_GAUGE_SET(obs::kGaugeServeSessionsLive,
                static_cast<int64_t>(sessions_.size()));
}

util::StatusOr<SessionManager::CreateResult> SessionManager::Create(
    const std::string& instance, const std::string& strategy,
    const std::string& goal, uint64_t seed, uint64_t max_steps) {
  JIM_SPAN(obs::kHistServeCreateMicros);
  const std::string& instance_name =
      instance.empty() ? options_.default_instance : instance;
  if (instance_name.empty()) {
    return util::InvalidArgumentError(
        "create: no 'instance' given and the daemon has no default");
  }
  ASSIGN_OR_RETURN(std::unique_ptr<core::Strategy> strategy_impl,
                   core::MakeStrategy(strategy, seed));

  std::shared_ptr<Session> session;
  std::string session_id;
  CreateResult result;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (sessions_.size() >= options_.max_sessions) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      JIM_COUNT(obs::kCounterServeSessionsRejected);
      return util::ResourceExhaustedError(util::StrFormat(
          "session limit reached (%zu live, max %zu)", sessions_.size(),
          options_.max_sessions));
    }
    ASSIGN_OR_RETURN(Instance * inst,
                     GetOrOpenInstance(instance_name));
    session = std::make_shared<Session>(*inst->prototype,
                                        std::move(strategy_impl));
    if (!goal.empty()) {
      ASSIGN_OR_RETURN(core::JoinPredicate parsed_goal,
                       core::JoinPredicate::Parse(
                           session->engine.store().schema(), goal));
      session->goal = std::move(parsed_goal);
    }
    session_id = util::StrFormat("s%llu",
                                 static_cast<unsigned long long>(
                                     next_session_++));
    session->checkpoint.session_id = session_id;
    session->checkpoint.instance = instance_name;
    session->checkpoint.strategy = strategy;
    session->checkpoint.goal = goal;
    session->checkpoint.seed = seed;
    session->checkpoint.max_steps =
        max_steps != 0 ? max_steps : options_.default_max_steps;
    sessions_[session_id] = session;
    UpdateLiveGauge();
  }

  // Persist the empty transcript so a restart recovers even a session that
  // has not been labeled yet. On failure the session is rolled back — a
  // create either exists durably or not at all.
  {
    std::lock_guard<std::mutex> session_lock(session->mutex);
    util::Status persisted = PersistSession(*session);
    if (!persisted.ok()) {
      std::lock_guard<std::mutex> lock(mutex_);
      sessions_.erase(session_id);
      UpdateLiveGauge();
      return persisted;
    }
    result.session_id = session_id;
    result.num_tuples = session->engine.num_tuples();
    result.num_classes = session->engine.num_classes();
    result.done = session->engine.IsDone();
  }
  created_.fetch_add(1, std::memory_order_relaxed);
  JIM_COUNT(obs::kCounterServeSessionsCreated);
  return result;
}

util::Status SessionManager::PersistSession(Session& session) {
  if (options_.checkpoint_dir.empty()) return util::OkStatus();
  JIM_SPAN(obs::kHistServeCheckpointMicros);
  RETURN_IF_ERROR(EnsureCheckpointDir());
  return WriteCheckpoint(*env_, options_.checkpoint_dir, session.checkpoint,
                         options_.retry);
}

util::StatusOr<SessionManager::SuggestResult> SessionManager::Suggest(
    const std::string& session_id) {
  JIM_SPAN(obs::kHistServeSuggestMicros);
  ASSIGN_OR_RETURN(std::shared_ptr<Session> session, FindSession(session_id));
  std::lock_guard<std::mutex> lock(session->mutex);
  SuggestResult result;
  result.step = session->checkpoint.steps.size();
  if (session->engine.IsDone()) {
    result.done = true;
    return result;
  }
  if (!session->has_pending_pick) {
    // At most one PickClass per step: repeated suggests return the cached
    // pick, so polling never advances a randomized strategy's RNG (and the
    // checkpointed transcript stays replayable).
    session->pending_pick = session->strategy->PickClass(session->engine);
    session->has_pending_pick = true;
  }
  result.class_id = session->pending_pick;
  const core::TupleClass tuple_class =
      session->engine.tuple_class(result.class_id);
  result.tuple_index = tuple_class.tuple_indices[0];
  result.class_size = tuple_class.size();
  const core::TupleStore& store = session->engine.store();
  result.values.reserve(store.num_attributes());
  for (size_t a = 0; a < store.num_attributes(); ++a) {
    result.values.push_back(
        store.DecodeValue(result.tuple_index, a).ToString());
  }
  return result;
}

util::StatusOr<SessionManager::LabelResult> SessionManager::Label(
    const std::string& session_id, size_t class_id, bool positive) {
  JIM_SPAN(obs::kHistServeLabelMicros);
  ASSIGN_OR_RETURN(std::shared_ptr<Session> session, FindSession(session_id));
  std::lock_guard<std::mutex> lock(session->mutex);
  if (session->engine.IsDone()) {
    return util::FailedPreconditionError(
        util::StrFormat("session '%s' is done", session_id.c_str()));
  }
  if (session->checkpoint.steps.size() >= session->checkpoint.max_steps) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    JIM_COUNT(obs::kCounterServeSessionsRejected);
    return util::ResourceExhaustedError(util::StrFormat(
        "session '%s' reached its step cap (%llu)", session_id.c_str(),
        static_cast<unsigned long long>(session->checkpoint.max_steps)));
  }
  if (class_id >= session->engine.num_classes()) {
    return util::InvalidArgumentError(util::StrFormat(
        "class %zu out of range (%zu classes)", class_id,
        session->engine.num_classes()));
  }

  // Label a clone, persist, then commit: a checkpoint-write failure leaves
  // the in-memory session exactly at its durable transcript (no rollback
  // path through the engine is ever needed), and a contradiction rejection
  // discards the clone without touching the session.
  core::InferenceEngine trial = session->engine;
  core::InferenceEngine::LabelImpact impact;
  RETURN_IF_ERROR(trial.SubmitClassLabel(
      class_id, positive ? core::Label::kPositive : core::Label::kNegative,
      &impact));

  // Class and tuple ids fit the checkpoint's uint32_t fields: the engine
  // admits only stores of fewer than 2^32 tuples.
  CheckpointStep step;
  step.suggested_class = session->has_pending_pick
                             ? static_cast<uint32_t>(session->pending_pick)
                             : kNoSuggestion;
  step.class_id = static_cast<uint32_t>(class_id);
  step.tuple_index = static_cast<uint32_t>(
      session->engine.tuple_class(class_id).tuple_indices[0]);
  step.answer = positive ? 1 : 0;
  session->checkpoint.steps.push_back(step);
  util::Status persisted = PersistSession(*session);
  if (!persisted.ok()) {
    session->checkpoint.steps.pop_back();
    return persisted;
  }
  session->engine = std::move(trial);
  session->has_pending_pick = false;

  LabelResult result;
  result.step = session->checkpoint.steps.size();
  result.pruned_classes = impact.pruned_classes;
  result.pruned_tuples = impact.pruned_tuples;
  // Only a label on a class that already left the pool prunes nothing.
  result.wasted = impact.pruned_classes == 0;
  result.done = session->engine.IsDone();
  return result;
}

util::StatusOr<SessionManager::StatusResult> SessionManager::Status(
    const std::string& session_id) {
  ASSIGN_OR_RETURN(std::shared_ptr<Session> session, FindSession(session_id));
  std::lock_guard<std::mutex> lock(session->mutex);
  core::InferenceEngine::Stats stats = session->engine.GetStats();
  StatusResult result;
  result.steps = session->checkpoint.steps.size();
  result.done = session->engine.IsDone();
  result.num_tuples = stats.num_tuples;
  result.num_classes = stats.num_classes;
  result.informative_classes = stats.informative_classes;
  result.informative_tuples = stats.informative_tuples;
  result.strategy = session->checkpoint.strategy;
  result.instance = session->checkpoint.instance;
  return result;
}

util::StatusOr<SessionManager::ResultReply> SessionManager::Result(
    const std::string& session_id) {
  ASSIGN_OR_RETURN(std::shared_ptr<Session> session, FindSession(session_id));
  std::lock_guard<std::mutex> lock(session->mutex);
  ResultReply reply;
  reply.done = session->engine.IsDone();
  core::JoinPredicate predicate = session->engine.Result();
  reply.predicate = predicate.ToString();
  if (session->goal.has_value()) {
    reply.has_goal = true;
    reply.identified_goal =
        reply.done && core::InstanceEquivalent(session->engine.store(),
                                               predicate, *session->goal);
  }
  return reply;
}

util::Status SessionManager::Close(const std::string& session_id) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      return util::NotFoundError(
          util::StrFormat("no session '%s'", session_id.c_str()));
    }
    sessions_.erase(it);
    UpdateLiveGauge();
  }
  evicted_.fetch_add(1, std::memory_order_relaxed);
  JIM_COUNT(obs::kCounterServeSessionsEvicted);
  if (!options_.checkpoint_dir.empty()) {
    std::string path =
        options_.checkpoint_dir + "/" + CheckpointFileName(session_id);
    util::Status removed = env_->RemoveFile(path);
    if (!removed.ok() && removed.code() != util::StatusCode::kNotFound) {
      return removed;
    }
  }
  return util::OkStatus();
}

SessionManager::Stats SessionManager::GetStats() const {
  Stats stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.live = sessions_.size();
  }
  stats.created = created_.load(std::memory_order_relaxed);
  stats.recovered = recovered_.load(std::memory_order_relaxed);
  stats.evicted = evicted_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  return stats;
}

util::StatusOr<std::shared_ptr<SessionManager::Session>>
SessionManager::ReplayCheckpoint(const SessionCheckpoint& checkpoint,
                                 const Instance& instance) const {
  ASSIGN_OR_RETURN(
      std::unique_ptr<core::Strategy> strategy,
      core::MakeStrategy(checkpoint.strategy, checkpoint.seed));
  auto session =
      std::make_shared<Session>(*instance.prototype, std::move(strategy));
  if (!checkpoint.goal.empty()) {
    ASSIGN_OR_RETURN(core::JoinPredicate goal,
                     core::JoinPredicate::Parse(
                         session->engine.store().schema(), checkpoint.goal));
    session->goal = std::move(goal);
  }
  session->checkpoint = checkpoint;
  for (size_t i = 0; i < checkpoint.steps.size(); ++i) {
    const CheckpointStep& step = checkpoint.steps[i];
    if (session->engine.IsDone()) {
      return util::InternalError(util::StrFormat(
          "checkpoint replay diverged for session '%s': step %zu recorded "
          "after the session was done",
          checkpoint.session_id.c_str(), i));
    }
    if (step.suggested_class != kNoSuggestion) {
      // Re-drive the strategy exactly where the live daemon drove it, so
      // RNG-bearing strategies land in the same state the crash left them.
      size_t pick = session->strategy->PickClass(session->engine);
      if (pick != step.suggested_class) {
        return util::InternalError(util::StrFormat(
            "checkpoint replay diverged for session '%s': step %zu suggested "
            "class %zu, checkpoint recorded %u",
            checkpoint.session_id.c_str(), i, pick, step.suggested_class));
      }
    }
    if (step.class_id >= session->engine.num_classes()) {
      return util::InternalError(util::StrFormat(
          "checkpoint replay diverged for session '%s': step %zu labels "
          "class %u of %zu",
          checkpoint.session_id.c_str(), i, step.class_id,
          session->engine.num_classes()));
    }
    util::Status labeled = session->engine.SubmitClassLabel(
        step.class_id,
        step.answer != 0 ? core::Label::kPositive : core::Label::kNegative);
    if (!labeled.ok()) {
      return util::InternalError(util::StrFormat(
          "checkpoint replay diverged for session '%s': step %zu rejected: "
          "%s",
          checkpoint.session_id.c_str(), i, labeled.ToString().c_str()));
    }
  }
  return session;
}

util::Status SessionManager::RecoverSessions() {
  if (options_.checkpoint_dir.empty()) return util::OkStatus();
  JIM_SPAN(obs::kHistServeRecoverMicros);
  RETURN_IF_ERROR(EnsureCheckpointDir());
  ASSIGN_OR_RETURN(std::vector<std::string> entries,
                   env_->ListDirectory(options_.checkpoint_dir));
  // ListDirectory order is filesystem-dependent; sort so recovery work and
  // any failure it reports are deterministic.
  std::sort(entries.begin(), entries.end());
  std::vector<SessionCheckpoint> checkpoints;
  for (const std::string& entry : entries) {
    std::string path = options_.checkpoint_dir + "/" + entry;
    if (util::EndsWith(entry, ".tmp")) {
      // Stale atomic-write temp from a crash mid-checkpoint; the final file
      // (old or new) is authoritative.
      (void)env_->RemoveFile(path);
      continue;
    }
    if (!util::StartsWith(entry, "session_") ||
        !util::EndsWith(entry, ".jims")) {
      continue;
    }
    ASSIGN_OR_RETURN(SessionCheckpoint checkpoint,
                     ReadCheckpoint(*env_, path));
    // Every later write and Close() of the session goes to the file its id
    // names, so a checkpoint under another name would be left behind.
    if (entry != CheckpointFileName(checkpoint.session_id)) {
      return util::InvalidArgumentError(util::StrFormat(
          "%s: checkpoint holds session id '%s', which belongs in %s",
          path.c_str(), checkpoint.session_id.c_str(),
          CheckpointFileName(checkpoint.session_id).c_str()));
    }
    checkpoints.push_back(std::move(checkpoint));
  }
  if (checkpoints.empty()) return util::OkStatus();

  // Open every referenced instance once, up front (serial: instance opens
  // share the manager maps), then fan the per-session replays out over the
  // shared pool.
  std::vector<const Instance*> instance_of(checkpoints.size(), nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < checkpoints.size(); ++i) {
      ASSIGN_OR_RETURN(Instance * instance,
                       GetOrOpenInstance(checkpoints[i].instance));
      instance_of[i] = instance;
    }
  }
  std::vector<std::shared_ptr<Session>> replayed(checkpoints.size());
  std::vector<util::Status> statuses(checkpoints.size());
  exec::SharedPool().ParallelFor(checkpoints.size(), [&](size_t i, size_t) {
    auto session = ReplayCheckpoint(checkpoints[i], *instance_of[i]);
    if (session.ok()) {
      replayed[i] = std::move(session).value();
    } else {
      statuses[i] = session.status();
    }
  });
  for (const util::Status& status : statuses) {
    RETURN_IF_ERROR(status);
  }

  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < checkpoints.size(); ++i) {
    const std::string& session_id = checkpoints[i].session_id;
    if (sessions_.count(session_id) != 0) {
      return util::InternalError(util::StrFormat(
          "duplicate checkpointed session id '%s'", session_id.c_str()));
    }
    sessions_[session_id] = std::move(replayed[i]);
    next_session_ = std::max(next_session_, SessionIdNumber(session_id) + 1);
  }
  recovered_.fetch_add(checkpoints.size(), std::memory_order_relaxed);
  JIM_COUNT_N(obs::kCounterServeSessionsRecovered, checkpoints.size());
  UpdateLiveGauge();
  return util::OkStatus();
}

}  // namespace jim::serve
