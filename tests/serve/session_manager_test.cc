// SessionManager contract tests: session lifecycle against the paper's
// Figure 1 oracle, admission control (live-session cap, per-session step
// cap, typed RESOURCE_EXHAUSTED), contradiction rejection, concurrent
// sessions on the shared lookahead pool picking what the serial path
// picks, suggest idempotence (polling never advances a strategy's RNG),
// and checkpoint/recovery determinism — a recovered manager's future picks
// equal the uninterrupted manager's, including for RNG-bearing strategies.

#include "serve/session_manager.h"

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/jim.h"
#include "exec/parallel.h"
#include "gtest/gtest.h"
#include "support/parallel_for_calls.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/synthetic.h"
#include "workload/travel.h"

namespace jim::serve {
namespace {

// Session strategies score on exec::SharedPool(); size it before its first
// use so the pooled path exists on any machine.
const bool kSharedPoolSized = [] {
  exec::SetDefaultThreads(4);
  return true;
}();

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "session_manager_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// A manager over the registered Figure 1 instance.
std::unique_ptr<SessionManager> MakeManager(ServeOptions options = {}) {
  options.default_instance = "figure1";
  auto manager = std::make_unique<SessionManager>(std::move(options));
  manager->RegisterInstance("figure1", workload::Figure1StorePtr());
  return manager;
}

/// Answers `class_id` the way an exact user with `goal` would: by whether
/// the class's representative tuple is selected.
bool OracleAnswer(const core::TupleStore& store,
                  const core::JoinPredicate& goal, size_t tuple_index) {
  return goal.SelectedRows(store).Test(tuple_index);
}

/// Drives the session to completion with an exact oracle; returns the
/// number of labels submitted.
size_t DriveToDone(SessionManager& manager, const std::string& session_id,
                   const core::JoinPredicate& goal,
                   const core::TupleStore& store) {
  size_t labels = 0;
  for (;;) {
    auto suggested = manager.Suggest(session_id);
    EXPECT_TRUE(suggested.ok()) << suggested.status();
    if (!suggested.ok() || suggested->done) return labels;
    auto labeled = manager.Label(
        session_id, suggested->class_id,
        OracleAnswer(store, goal, suggested->tuple_index));
    EXPECT_TRUE(labeled.ok()) << labeled.status();
    if (!labeled.ok()) return labels;
    ++labels;
    EXPECT_LT(labels, 1000u) << "session did not converge";
    if (labels >= 1000u) return labels;
  }
}

TEST(SessionManagerTest, LifecycleIdentifiesTheFigure1Goal) {
  auto manager = MakeManager();
  auto store = workload::Figure1StorePtr();
  const auto goal =
      core::JoinPredicate::Parse(store->schema(), workload::kQ2).value();

  auto created = manager->Create("", "lookahead-entropy", workload::kQ2,
                                 /*seed=*/1, /*max_steps=*/0);
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_EQ(created->session_id, "s1");
  EXPECT_EQ(created->num_tuples, store->num_tuples());
  EXPECT_FALSE(created->done);

  const size_t labels =
      DriveToDone(*manager, created->session_id, goal, *store);
  EXPECT_GT(labels, 0u);

  auto status = manager->Status(created->session_id);
  ASSERT_TRUE(status.ok()) << status.status();
  EXPECT_TRUE(status->done);
  EXPECT_EQ(status->steps, labels);
  EXPECT_EQ(status->strategy, "lookahead-entropy");
  EXPECT_EQ(status->instance, "figure1");

  auto result = manager->Result(created->session_id);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->done);
  EXPECT_TRUE(result->has_goal);
  EXPECT_TRUE(result->identified_goal);

  // Done sessions reject further labels with a typed error.
  auto late = manager->Label(created->session_id, 0, true);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), util::StatusCode::kFailedPrecondition);

  EXPECT_TRUE(manager->Close(created->session_id).ok());
  EXPECT_EQ(manager->GetStats().live, 0u);
  EXPECT_EQ(manager->GetStats().evicted, 1u);
}

TEST(SessionManagerTest, UnknownSessionIsNotFound) {
  auto manager = MakeManager();
  EXPECT_EQ(manager->Suggest("s99").status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(manager->Label("s99", 0, true).status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(manager->Status("s99").status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(manager->Result("s99").status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(manager->Close("s99").code(), util::StatusCode::kNotFound);
}

TEST(SessionManagerTest, AdmissionCapRejectsTyped) {
  ServeOptions options;
  options.max_sessions = 2;
  auto manager = MakeManager(std::move(options));
  auto first = manager->Create("", "random", "", 1, 0);
  auto second = manager->Create("", "random", "", 2, 0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  auto third = manager->Create("", "random", "", 3, 0);
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(manager->GetStats().rejected, 1u);
  // Closing frees the slot.
  ASSERT_TRUE(manager->Close(first->session_id).ok());
  EXPECT_TRUE(manager->Create("", "random", "", 3, 0).ok());
}

TEST(SessionManagerTest, StepCapRejectsTyped) {
  auto manager = MakeManager();
  auto created = manager->Create("", "local-bottom-up", "", 1,
                                 /*max_steps=*/1);
  ASSERT_TRUE(created.ok()) << created.status();
  auto first = manager->Suggest(created->session_id);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(
      manager->Label(created->session_id, first->class_id, false).ok());
  auto second = manager->Suggest(created->session_id);
  ASSERT_TRUE(second.ok());
  ASSERT_FALSE(second->done);
  auto capped = manager->Label(created->session_id, second->class_id, false);
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(manager->GetStats().rejected, 1u);
  // The rejected label did not touch the session.
  EXPECT_EQ(manager->Status(created->session_id)->steps, 1u);
}

TEST(SessionManagerTest, ContradictionLeavesSessionUntouched) {
  auto manager = MakeManager();
  auto created = manager->Create("", "local-bottom-up", "", 1, 0);
  ASSERT_TRUE(created.ok());
  auto suggested = manager->Suggest(created->session_id);
  ASSERT_TRUE(suggested.ok());
  ASSERT_TRUE(
      manager->Label(created->session_id, suggested->class_id, true).ok());
  // Relabeling the same class negatively contradicts the accepted positive.
  auto contradiction =
      manager->Label(created->session_id, suggested->class_id, false);
  ASSERT_FALSE(contradiction.ok());
  EXPECT_EQ(contradiction.status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(manager->Status(created->session_id)->steps, 1u);
}

TEST(SessionManagerTest, ClassOutOfRangeIsInvalidArgument) {
  auto manager = MakeManager();
  auto created = manager->Create("", "random", "", 1, 0);
  ASSERT_TRUE(created.ok());
  auto labeled =
      manager->Label(created->session_id, created->num_classes + 5, true);
  ASSERT_FALSE(labeled.ok());
  EXPECT_EQ(labeled.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(SessionManagerTest, UnknownInstanceAndStrategyFailTyped) {
  ServeOptions options;  // no default instance
  SessionManager manager(std::move(options));
  EXPECT_EQ(manager.Create("", "random", "", 1, 0).status().code(),
            util::StatusCode::kInvalidArgument);
  auto missing = manager.Create("/does/not/exist.jimc", "random", "", 1, 0);
  EXPECT_FALSE(missing.ok());

  auto with_instance = MakeManager();
  EXPECT_FALSE(with_instance->Create("", "no-such-strategy", "", 1, 0).ok());
  EXPECT_FALSE(with_instance->Create("", "random", "NoSuchAttr=X", 1, 0).ok());
}

TEST(SessionManagerTest, SuggestIsIdempotentUntilTheNextLabel) {
  // Random strategy: if polling advanced the RNG, repeated suggests would
  // (with overwhelming probability) disagree somewhere along the session.
  auto manager = MakeManager();
  auto created = manager->Create("", "random", "", /*seed=*/99, 0);
  ASSERT_TRUE(created.ok());
  for (int step = 0; step < 3; ++step) {
    auto first = manager->Suggest(created->session_id);
    ASSERT_TRUE(first.ok());
    if (first->done) break;
    for (int repeat = 0; repeat < 4; ++repeat) {
      auto again = manager->Suggest(created->session_id);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(again->class_id, first->class_id);
      EXPECT_EQ(again->step, first->step);
    }
    ASSERT_TRUE(
        manager->Label(created->session_id, first->class_id, false).ok());
  }
}

TEST(SessionManagerTest, ConcurrentWideSessionsFanOutAndPickSerially) {
  // Daemon sessions score lookahead on exec::SharedPool() once a worklist
  // reaches core::kParallelLookaheadMinCandidates. Four threads drive
  // sessions over an instance above that size at once; every session must
  // pick exactly what the serial strategy with its seed picks, and the
  // shared pool must actually have been used.
  util::Rng rng(5);
  workload::SyntheticSpec spec;
  spec.num_attributes = 6;
  spec.num_tuples = 300;
  spec.domain_size = 4;
  spec.goal_constraints = 2;
  const auto workload = workload::MakeSyntheticWorkload(spec, rng);
  ASSERT_GE(core::InferenceEngine(workload.store).InformativeClasses().size(),
            core::kParallelLookaheadMinCandidates);
  ASSERT_GT(exec::SharedPool().threads(), 1u);

  ServeOptions options;
  options.default_instance = "synthetic";
  SessionManager manager(std::move(options));
  manager.RegisterInstance("synthetic", workload.store);

  constexpr size_t kThreads = 4;
  std::vector<std::vector<size_t>> picks(kThreads);
  const auto drive_concurrently = [&] {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        auto created =
            manager.Create("", "lookahead-entropy", "", /*seed=*/i + 1, 0);
        ASSERT_TRUE(created.ok()) << created.status();
        for (;;) {
          auto suggested = manager.Suggest(created->session_id);
          ASSERT_TRUE(suggested.ok()) << suggested.status();
          if (suggested->done) break;
          picks[i].push_back(suggested->class_id);
          ASSERT_TRUE(manager
                          .Label(created->session_id, suggested->class_id,
                                 OracleAnswer(*workload.store, workload.goal,
                                              suggested->tuple_index))
                          .ok());
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  };
  EXPECT_GT(exec::ParallelForCallsDuring(drive_concurrently), 0u);

  for (size_t i = 0; i < kThreads; ++i) {
    auto serial = core::MakeStrategy("lookahead-entropy", i + 1).value();
    static_cast<core::LookaheadStrategy&>(*serial).set_thread_pool(nullptr);
    const core::SessionResult reference =
        core::RunSession(workload.store, workload.goal, *serial);
    ASSERT_TRUE(reference.identified_goal);
    std::vector<size_t> expected;
    for (const core::SessionStep& step : reference.steps) {
      expected.push_back(step.class_id);
    }
    EXPECT_EQ(picks[i], expected) << "session " << i;
  }
}

TEST(SessionManagerTest, RecoveryContinuesEverySessionIdentically) {
  // The determinism gate: for every strategy (RNG-bearing ones included),
  // drive k labels, recover into a fresh manager from the checkpoint dir,
  // and require the recovered manager's entire remaining pick/answer
  // sequence to equal the uninterrupted manager's.
  const std::vector<std::string> strategies = {
      "random", "local-bottom-up", "lookahead-entropy", "lookahead-minmax"};
  const std::string dir = FreshDir("recovery");
  ServeOptions options;
  options.checkpoint_dir = dir;
  auto manager = MakeManager(options);
  auto store = workload::Figure1StorePtr();
  const auto goal =
      core::JoinPredicate::Parse(store->schema(), workload::kQ2).value();

  std::vector<std::string> ids;
  for (size_t i = 0; i < strategies.size(); ++i) {
    auto created = manager->Create("", strategies[i], workload::kQ2,
                                   /*seed=*/10 + i, 0);
    ASSERT_TRUE(created.ok()) << created.status();
    ids.push_back(created->session_id);
    // Stagger progress: i labels for session i (session 0 recovers from an
    // empty transcript). An extra un-labeled suggest on even sessions pins
    // that a pending pick is recomputed identically after recovery.
    for (size_t k = 0; k < i; ++k) {
      auto suggested = manager->Suggest(ids[i]);
      ASSERT_TRUE(suggested.ok());
      ASSERT_FALSE(suggested->done);
      ASSERT_TRUE(manager
                      ->Label(ids[i], suggested->class_id,
                              OracleAnswer(*store, goal,
                                           suggested->tuple_index))
                      .ok());
    }
    if (i % 2 == 0) {
      ASSERT_TRUE(manager->Suggest(ids[i]).ok());
    }
  }

  auto recovered = MakeManager(options);
  ASSERT_TRUE(recovered->RecoverSessions().ok());
  EXPECT_EQ(recovered->GetStats().recovered, strategies.size());
  EXPECT_EQ(recovered->GetStats().live, strategies.size());

  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t step = 0; step < 1000; ++step) {
      auto original = manager->Suggest(ids[i]);
      auto replica = recovered->Suggest(ids[i]);
      ASSERT_TRUE(original.ok()) << original.status();
      ASSERT_TRUE(replica.ok()) << replica.status();
      ASSERT_EQ(original->done, replica->done) << ids[i];
      if (original->done) break;
      ASSERT_EQ(original->class_id, replica->class_id)
          << ids[i] << " step " << step;
      ASSERT_EQ(original->tuple_index, replica->tuple_index);
      const bool answer = OracleAnswer(*store, goal, original->tuple_index);
      auto labeled_a = manager->Label(ids[i], original->class_id, answer);
      auto labeled_b = recovered->Label(ids[i], replica->class_id, answer);
      ASSERT_TRUE(labeled_a.ok());
      ASSERT_TRUE(labeled_b.ok());
      ASSERT_EQ(labeled_a->pruned_classes, labeled_b->pruned_classes);
      ASSERT_EQ(labeled_a->done, labeled_b->done);
    }
    EXPECT_TRUE(manager->Result(ids[i])->identified_goal) << ids[i];
    EXPECT_TRUE(recovered->Result(ids[i])->identified_goal) << ids[i];
  }

  // New sessions in the recovered manager never collide with recovered ids.
  auto fresh = recovered->Create("", "random", "", 1, 0);
  ASSERT_TRUE(fresh.ok());
  for (const std::string& id : ids) {
    EXPECT_NE(fresh->session_id, id);
  }
}

TEST(SessionManagerTest, CloseRemovesTheCheckpoint) {
  const std::string dir = FreshDir("close");
  ServeOptions options;
  options.checkpoint_dir = dir;
  auto manager = MakeManager(options);
  auto created = manager->Create("", "random", "", 1, 0);
  ASSERT_TRUE(created.ok());
  const std::string path =
      dir + "/" + CheckpointFileName(created->session_id);
  EXPECT_TRUE(std::filesystem::exists(path));
  ASSERT_TRUE(manager->Close(created->session_id).ok());
  EXPECT_FALSE(std::filesystem::exists(path));

  auto recovered = MakeManager(options);
  ASSERT_TRUE(recovered->RecoverSessions().ok());
  EXPECT_EQ(recovered->GetStats().live, 0u);
}

TEST(SessionManagerTest, RecoveryFailsLoudOnCorruptCheckpoint) {
  const std::string dir = FreshDir("corrupt");
  ServeOptions options;
  options.checkpoint_dir = dir;
  {
    auto manager = MakeManager(options);
    ASSERT_TRUE(manager->Create("", "random", "", 1, 0).ok());
  }
  // Flip a byte in the checkpoint body; the checksum must catch it and
  // recovery must surface a typed error, not silently drop the session.
  const std::string path = dir + "/" + CheckpointFileName("s1");
  std::string bytes;
  {
    auto contents = storage::DefaultEnv()->ReadFileToString(path);
    ASSERT_TRUE(contents.ok());
    bytes = *contents;
  }
  ASSERT_GT(bytes.size(), 10u);
  bytes[9] ^= 0x40;
  ASSERT_TRUE(
      storage::WriteFileAtomically(*storage::DefaultEnv(), path, bytes).ok());
  auto recovered = MakeManager(options);
  const util::Status status = recovered->RecoverSessions();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
}

TEST(SessionManagerTest, RecoveryRejectsACheckpointUnderAnotherSessionsName) {
  const std::string dir = FreshDir("misnamed");
  ServeOptions options;
  options.checkpoint_dir = dir;
  {
    auto manager = MakeManager(options);
    for (int i = 0; i < 7; ++i) {
      ASSERT_TRUE(manager->Create("", "random", "", 1, 0).ok());
    }
  }
  // A checksum-valid file whose name and content disagree: session_s3.jims
  // holding s7's checkpoint. Recovered as s7, its next label would write
  // session_s7.jims too, and Close("s7") would leave session_s3.jims behind
  // to resurrect the session.
  const std::string s3 = dir + "/" + CheckpointFileName("s3");
  const std::string s7 = dir + "/" + CheckpointFileName("s7");
  auto s7_bytes = storage::DefaultEnv()->ReadFileToString(s7);
  ASSERT_TRUE(s7_bytes.ok());
  ASSERT_TRUE(storage::WriteFileAtomically(*storage::DefaultEnv(), s3,
                                           *s7_bytes)
                  .ok());
  ASSERT_TRUE(storage::DefaultEnv()->RemoveFile(s7).ok());

  auto recovered = MakeManager(options);
  const util::Status status = recovered->RecoverSessions();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(s3), std::string::npos)
      << status.ToString();
  EXPECT_EQ(recovered->GetStats().live, 0u);
}

}  // namespace
}  // namespace jim::serve
