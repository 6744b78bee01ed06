// Crash-point enumeration over the serving checkpoint path, in the style of
// tests/storage/crash_recovery_test.cc: learn the deterministic operation
// schedule of a clean create + N-label session, then re-run once per
// schedule index with a simulated power cut armed there. Each cut's durable
// state is replayed into a real directory (strict and metadata-flushed
// semantics, torn-tail variants of both) and a fresh SessionManager
// recovers from it for real, proving:
//   - the recovered transcript is always a prefix of the oracle-driven
//     session, and per checkpoint write the old XOR the new image survives
//     (at most the in-flight label is lost, never a torn/mixed transcript);
//   - the recovered session's entire remaining pick sequence is
//     byte-identical to an uninterrupted reference session's at the same
//     transcript prefix (RNG-bearing strategy included);
//   - leftover *.tmp staging files are garbage-collected by recovery.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/jim.h"
#include "gtest/gtest.h"
#include "serve/checkpoint.h"
#include "serve/session_manager.h"
#include "support/fault_env.h"
#include "util/string_util.h"
#include "workload/travel.h"

namespace jim::serve {
namespace {

constexpr char kCheckpointVroot[] = "vroot/serve_ckpt";
constexpr size_t kLabels = 3;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "serve_crash_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::unique_ptr<SessionManager> MakeManager(ServeOptions options) {
  options.default_instance = "figure1";
  auto manager = std::make_unique<SessionManager>(std::move(options));
  manager->RegisterInstance("figure1", workload::Figure1StorePtr());
  return manager;
}

bool OracleAnswer(const core::TupleStore& store,
                  const core::JoinPredicate& goal, size_t tuple_index) {
  return goal.SelectedRows(store).Test(tuple_index);
}

/// Drives create + up to kLabels oracle labels against `manager`, stopping
/// at the first error (the armed crash). Returns the number of labels the
/// manager *acknowledged* (persisted-then-committed).
size_t DriveSession(SessionManager& manager, const core::TupleStore& store,
                    const core::JoinPredicate& goal, bool* created_acked) {
  auto created = manager.Create("", "random", workload::kQ2, /*seed=*/5, 0);
  *created_acked = created.ok();
  if (!created.ok()) return 0;
  size_t acked = 0;
  for (size_t i = 0; i < kLabels; ++i) {
    auto suggested = manager.Suggest(created->session_id);
    if (!suggested.ok() || suggested->done) break;
    auto labeled = manager.Label(
        created->session_id, suggested->class_id,
        OracleAnswer(store, goal, suggested->tuple_index));
    if (!labeled.ok()) break;
    ++acked;
  }
  return acked;
}

struct ReplayScenario {
  storage::FaultInjectionEnv::ReplayMode mode;
  uint64_t torn_seed;
  const char* tag;
};

std::vector<ReplayScenario> Scenarios(uint64_t crash_point) {
  return {
      {storage::FaultInjectionEnv::ReplayMode::kStrict, 0, "strict"},
      {storage::FaultInjectionEnv::ReplayMode::kStrict, crash_point * 2 + 1,
       "strict_torn"},
      {storage::FaultInjectionEnv::ReplayMode::kMetadataFlushed, 0,
       "flushed"},
      {storage::FaultInjectionEnv::ReplayMode::kMetadataFlushed,
       crash_point * 2 + 2, "flushed_torn"},
  };
}

TEST(ServeCheckpointCrashTest, EveryCrashPointRecoversAReplayablePrefix) {
  auto store = workload::Figure1StorePtr();
  const auto goal =
      core::JoinPredicate::Parse(store->schema(), workload::kQ2).value();

  // The uninterrupted reference: the full oracle-driven pick/answer
  // sequence every durable prefix must agree with.
  std::vector<size_t> reference_picks;
  std::vector<bool> reference_answers;
  {
    auto manager = MakeManager(ServeOptions{});
    auto created =
        manager->Create("", "random", workload::kQ2, /*seed=*/5, 0);
    ASSERT_TRUE(created.ok());
    for (;;) {
      auto suggested = manager->Suggest(created->session_id);
      ASSERT_TRUE(suggested.ok());
      if (suggested->done) break;
      const bool answer = OracleAnswer(*store, goal, suggested->tuple_index);
      reference_picks.push_back(suggested->class_id);
      reference_answers.push_back(answer);
      ASSERT_TRUE(
          manager->Label(created->session_id, suggested->class_id, answer)
              .ok());
    }
    ASSERT_GT(reference_picks.size(), kLabels)
        << "session too short to leave work for after the crash";
  }

  // Learn the deterministic checkpoint-op schedule of the clean run.
  uint64_t clean_ops = 0;
  {
    storage::FaultInjectionEnv probe;
    ServeOptions options;
    options.env = &probe;
    options.checkpoint_dir = kCheckpointVroot;
    auto manager = MakeManager(std::move(options));
    bool created_acked = false;
    ASSERT_EQ(DriveSession(*manager, *store, goal, &created_acked), kLabels);
    ASSERT_TRUE(created_acked);
    clean_ops = probe.op_count();
  }
  // create-dir + (1 create + kLabels labels) × atomic-write sequence.
  ASSERT_GE(clean_ops, (kLabels + 1) * 4);

  size_t recovered_empty = 0;
  size_t recovered_behind = 0;
  size_t recovered_at_ack = 0;
  for (uint64_t k = 0; k < clean_ops; ++k) {
    storage::FaultInjectionEnv env;
    env.set_torn_write_bytes(5);
    ServeOptions options;
    options.env = &env;
    options.checkpoint_dir = kCheckpointVroot;
    auto manager = MakeManager(std::move(options));
    env.CrashAtOp(k);
    bool created_acked = false;
    const size_t acked = DriveSession(*manager, *store, goal, &created_acked);
    ASSERT_TRUE(env.dead()) << "crash point " << k << " did not fire";
    ASSERT_LE(acked, kLabels);

    for (const ReplayScenario& scenario : Scenarios(k)) {
      const std::string dir =
          FreshDir(util::StrFormat("k%llu_%s",
                                   static_cast<unsigned long long>(k),
                                   scenario.tag));
      ASSERT_TRUE(env.ReplayDurableInto(kCheckpointVroot, dir, scenario.mode,
                                        scenario.torn_seed)
                      .ok());

      ServeOptions recover_options;
      recover_options.checkpoint_dir = dir;
      auto recovered = MakeManager(std::move(recover_options));
      const util::Status status = recovered->RecoverSessions();
      ASSERT_TRUE(status.ok())
          << "crash point " << k << " (" << scenario.tag
          << "): recovery failed: " << status;
      // Recovery garbage-collects staging leftovers.
      for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        EXPECT_FALSE(util::EndsWith(entry.path().string(), ".tmp"))
            << "crash point " << k << " left " << entry.path();
      }

      const auto stats = recovered->GetStats();
      ASSERT_LE(stats.live, 1u);
      if (stats.live == 0) {
        // The create itself never became durable — only reachable while
        // crashing inside the create's own persist.
        EXPECT_EQ(acked, 0u)
            << "crash point " << k << " (" << scenario.tag
            << "): acknowledged labels lost with the whole session";
        ++recovered_empty;
        continue;
      }

      // Old XOR new per checkpoint write: every acknowledged label is
      // durable; the in-flight one may or may not be.
      auto session_status = recovered->Status("s1");
      ASSERT_TRUE(session_status.ok()) << session_status.status();
      const size_t steps = session_status->steps;
      ASSERT_GE(steps, acked)
          << "crash point " << k << " (" << scenario.tag
          << "): acknowledged label lost";
      ASSERT_LE(steps, std::min(acked + 1, kLabels))
          << "crash point " << k << " (" << scenario.tag
          << "): unacknowledged labels invented";
      if (steps == acked) {
        ++recovered_at_ack;
      } else {
        ++recovered_behind;  // ack lost in flight, label still durable
      }

      // Byte-identical remaining transcript: the recovered session must
      // continue exactly like the reference from pick index `steps` on.
      for (size_t i = steps; i < reference_picks.size(); ++i) {
        auto suggested = recovered->Suggest("s1");
        ASSERT_TRUE(suggested.ok()) << suggested.status();
        ASSERT_FALSE(suggested->done)
            << "crash point " << k << " (" << scenario.tag
            << "): done early at step " << i;
        ASSERT_EQ(suggested->class_id, reference_picks[i])
            << "crash point " << k << " (" << scenario.tag
            << "): pick diverged at step " << i;
        ASSERT_TRUE(recovered
                        ->Label("s1", suggested->class_id,
                                reference_answers[i])
                        .ok());
      }
      auto result = recovered->Result("s1");
      ASSERT_TRUE(result.ok());
      EXPECT_TRUE(result->done);
      EXPECT_TRUE(result->identified_goal)
          << "crash point " << k << " (" << scenario.tag << ")";
    }
  }
  // All three recovery outcomes must be reachable across the sweep, or the
  // enumeration is vacuous.
  EXPECT_GT(recovered_empty, 0u);
  EXPECT_GT(recovered_at_ack, 0u);
  EXPECT_GT(recovered_behind, 0u);
}

}  // namespace
}  // namespace jim::serve
