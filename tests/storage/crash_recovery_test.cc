// Exhaustive crash-point enumeration over the storage tier's write path.
//
// The protocol (WriteStore): run the old version cleanly through a
// FaultInjectionEnv to learn its deterministic operation schedule, then
// re-run the new version once per schedule index with a simulated power cut
// armed there. Each cut's durable state is replayed into a real directory
// (strict fsync-barrier semantics, the metadata-flushed extreme, and
// torn-tail variants of both) and recovery runs on it for real, proving:
//   - the committed name always reopens as the complete old XOR the
//     complete new version — never a mix, never a torn image;
//   - a surviving staging file (`*.tmp`) is never the committed name and
//     fails typed (never UB) when opened directly;
//   - every truncated-prefix image of a JIMC file is a typed error.
// The ci CRASH stage runs this suite under ASan, so "typed error, not UB"
// is machine-checked.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/join_predicate.h"
#include "core/tuple_store.h"
#include "relational/relation.h"
#include "storage/env.h"
#include "storage/mapped_store.h"
#include "storage/store_writer.h"
#include "support/fault_env.h"
#include "support/tally_env.h"
#include "util/status.h"

namespace jim::storage {
namespace {

using rel::Value;

/// A scratch directory guaranteed empty (TempDir persists across runs, and
/// replay must not inherit last run's leftovers).
std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "crash_recovery_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Two-column relation whose (0,0) cell carries a version marker; `rows`
/// also differs between versions so a mixed image cannot masquerade as
/// either.
std::shared_ptr<const rel::Relation> MarkerRelation(
    const std::string& marker, size_t rows) {
  rel::Relation relation{"R", rel::Schema::FromNames({"m", "x"})};
  for (size_t r = 0; r < rows; ++r) {
    relation.AddRowUnchecked({Value(marker),
                              Value("x" + std::to_string(r % 3))});
  }
  return std::make_shared<const rel::Relation>(std::move(relation));
}

struct ReplayScenario {
  FaultInjectionEnv::ReplayMode mode;
  uint64_t torn_seed;
  const char* tag;
};

std::vector<ReplayScenario> Scenarios(uint64_t crash_point) {
  return {
      {FaultInjectionEnv::ReplayMode::kStrict, 0, "strict"},
      {FaultInjectionEnv::ReplayMode::kStrict, crash_point * 2 + 1,
       "strict_torn"},
      {FaultInjectionEnv::ReplayMode::kMetadataFlushed, 0, "flushed"},
      {FaultInjectionEnv::ReplayMode::kMetadataFlushed,
       crash_point * 2 + 2, "flushed_torn"},
  };
}

TEST(CrashRecoveryTest, EveryWriteStoreCrashPointRecoversOldXorNew) {
  const auto v1 = core::MakeRelationStore(MarkerRelation("one", 3));
  const auto v2 = core::MakeRelationStore(MarkerRelation("two", 5));
  const std::string path = "vroot/data.jimc";

  // Learn both deterministic operation schedules from one clean probe run.
  uint64_t n_first = 0;
  uint64_t n_second = 0;
  {
    FaultInjectionEnv probe;
    StoreWriterOptions options;
    options.env = &probe;
    ASSERT_TRUE(WriteStore(*v1, path, options).ok());
    n_first = probe.op_count();
    ASSERT_TRUE(WriteStore(*v2, path, options).ok());
    n_second = probe.op_count() - n_first;
  }
  // create + appends + fsync + close + rename + syncdir at minimum.
  ASSERT_GE(n_second, 6u);

  size_t recovered_old = 0;
  size_t recovered_new = 0;
  for (uint64_t k = 0; k < n_second; ++k) {
    FaultInjectionEnv env;
    env.set_torn_write_bytes(5);  // crashes mid-append land a torn prefix
    StoreWriterOptions options;
    options.env = &env;
    ASSERT_TRUE(WriteStore(*v1, path, options).ok());
    ASSERT_EQ(env.op_count(), n_first) << "schedule must be deterministic";
    env.CrashAtOp(n_first + k);
    const util::Status crashed = WriteStore(*v2, path, options);
    ASSERT_FALSE(crashed.ok()) << "crash point " << k << " did not fire";
    ASSERT_EQ(crashed.code(), util::StatusCode::kInternal)
        << "power loss must not be classified transient: " << crashed;

    for (const ReplayScenario& scenario : Scenarios(k)) {
      const std::string dir = FreshDir(
          "ws_" + std::to_string(k) + "_" + scenario.tag);
      ASSERT_TRUE(env.ReplayDurableInto("vroot", dir, scenario.mode,
                                        scenario.torn_seed)
                      .ok());
      // The committed name: always reopens, always one complete version.
      const auto opened = MappedTupleStore::Open(dir + "/data.jimc");
      ASSERT_TRUE(opened.ok())
          << "crash point " << k << " (" << scenario.tag
          << "): committed file lost or corrupt: " << opened.status();
      (*opened)->CheckInvariants();
      const std::string marker = (*opened)->DecodeValue(0, 0).AsString();
      const size_t rows = (*opened)->num_tuples();
      const bool is_old = marker == "one" && rows == 3;
      const bool is_new = marker == "two" && rows == 5;
      EXPECT_TRUE(is_old || is_new)
          << "crash point " << k << " (" << scenario.tag
          << "): mixed image: marker=" << marker << " rows=" << rows;
      recovered_old += is_old ? 1 : 0;
      recovered_new += is_new ? 1 : 0;
      // A surviving staging image must fail typed — never UB, never served
      // as data (a fully-written tmp that only missed its rename is the one
      // valid-content case, and it is still not the committed name).
      if (std::filesystem::exists(dir + "/data.jimc.tmp")) {
        const auto tmp = MappedTupleStore::Open(dir + "/data.jimc.tmp");
        if (!tmp.ok()) {
          EXPECT_EQ(tmp.status().code(),
                    util::StatusCode::kInvalidArgument)
              << tmp.status();
          EXPECT_FALSE(tmp.status().message().empty());
        }
      }
    }
  }
  // Both outcomes must be reachable across the sweep, or the enumeration
  // (or the durability model) is vacuous.
  EXPECT_GT(recovered_old, 0u);
  EXPECT_GT(recovered_new, 0u);
}

TEST(CrashRecoveryTest, EveryTruncatedPrefixImageFailsTyped) {
  const auto store = core::MakeRelationStore(MarkerRelation("one", 4));
  const std::string dir = FreshDir("prefix");
  const std::string path = dir + "/full.jimc";
  ASSERT_TRUE(WriteStore(*store, path).ok());
  Env& env = *DefaultEnv();
  const auto bytes = env.ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());

  const std::string prefix_path = dir + "/prefix.jimc";
  for (size_t length = 0; length < bytes->size(); ++length) {
    ASSERT_TRUE(
        WriteFileAtomically(env, prefix_path, bytes->substr(0, length))
            .ok());
    const auto opened = MappedTupleStore::Open(prefix_path);
    ASSERT_FALSE(opened.ok()) << "prefix of " << length << " bytes opened";
    EXPECT_EQ(opened.status().code(), util::StatusCode::kInvalidArgument)
        << "prefix " << length << ": " << opened.status();
    EXPECT_FALSE(opened.status().message().empty());
  }
  // The full image still round-trips (the loop above did not luck into
  // rejecting everything for a trivial reason).
  ASSERT_TRUE(WriteFileAtomically(env, prefix_path, *bytes).ok());
  EXPECT_TRUE(MappedTupleStore::Open(prefix_path).ok());
}

TEST(CrashRecoveryTest, MmapRefusalDegradesToHeapReaderWithFullParity) {
  const auto original = core::MakeRelationStore(MarkerRelation("one", 6));
  const std::string dir = FreshDir("degrade");
  const std::string path = dir + "/store.jimc";
  ASSERT_TRUE(WriteStore(*original, path).ok());

  const auto mapped = MappedTupleStore::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_TRUE((*mapped)->zero_copy());

  FaultInjectionEnv refusing;
  refusing.set_refuse_mmap(true);
  const auto heap = MappedTupleStore::Open(path, &refusing);
  ASSERT_TRUE(heap.ok())
      << "mmap refusal must degrade, not fail: " << heap.status();
  EXPECT_FALSE((*heap)->zero_copy());

  // Full parity: identity, every cell's code and value, invariants, and the
  // engine's read path (predicate evaluation over codes).
  ASSERT_TRUE((*heap)->schema() == (*mapped)->schema());
  EXPECT_EQ((*heap)->name(), (*mapped)->name());
  ASSERT_EQ((*heap)->num_tuples(), (*mapped)->num_tuples());
  for (size_t t = 0; t < (*mapped)->num_tuples(); ++t) {
    for (size_t a = 0; a < (*mapped)->num_attributes(); ++a) {
      EXPECT_EQ((*heap)->code(t, a), (*mapped)->code(t, a))
          << "(" << t << "," << a << ")";
      EXPECT_EQ((*heap)->DecodeValue(t, a).ToString(),
                (*mapped)->DecodeValue(t, a).ToString())
          << "(" << t << "," << a << ")";
    }
  }
  (*heap)->CheckInvariants();
  const auto predicate =
      core::JoinPredicate::Parse((*mapped)->schema(), "m = x");
  ASSERT_TRUE(predicate.ok()) << predicate.status();
  EXPECT_TRUE(predicate->SelectedRows(**heap) ==
              predicate->SelectedRows(**mapped));
}

TEST(CrashRecoveryTest, TransientFaultsRetryToSuccessInWriteStore) {
  const auto store = core::MakeRelationStore(MarkerRelation("one", 3));
  FaultInjectionEnv fault;
  // A TallyEnv between the writer and the fault schedule turns "did the
  // write retry" into an exact count, independent of the injectable clock.
  TallyEnv env(&fault);
  StoreWriterOptions options;
  options.env = &env;
  // Fault the first append of the store image (create=0, append=1).
  fault.FailAtOp(1, util::UnavailableError("injected EAGAIN"));
  const util::Status written = WriteStore(*store, "vroot/r.jimc", options);
  ASSERT_TRUE(written.ok()) << written;
  EXPECT_EQ(fault.sleeps_recorded(), 1u);
  EXPECT_EQ(env.counts().sleeps, 1u);     // exactly one backoff retry
  EXPECT_GE(env.counts().failures, 1u);   // the faulted append was counted
  const auto reopened = OpenStore("vroot/r.jimc", &env);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->DecodeValue(0, 0).AsString(), "one");
}

TEST(CrashRecoveryTest, NonTransientWriteErrorsSurfaceTypedWithoutRetry) {
  const auto store = core::MakeRelationStore(MarkerRelation("one", 3));
  FaultInjectionEnv env;
  StoreWriterOptions options;
  options.env = &env;
  env.FailAtOp(1, util::ResourceExhaustedError(
                      "cannot write: no space left on device (errno 28)"));
  const util::Status written = WriteStore(*store, "vroot/full.jimc", options);
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.code(), util::StatusCode::kResourceExhausted);
  EXPECT_NE(written.message().find("errno"), std::string::npos);
  EXPECT_EQ(env.sleeps_recorded(), 0u);
  // The failed write cleaned its staging file out of the namespace.
  EXPECT_FALSE(env.FileSize("vroot/full.jimc.tmp").ok());
  EXPECT_FALSE(env.FileSize("vroot/full.jimc").ok());
}

}  // namespace
}  // namespace jim::storage
