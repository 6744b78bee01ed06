// FaultInjectionEnv: the crash-simulation instrument itself. These tests pin
// the durability model (fsync watermarks, directory-entry barriers), the
// fault kinds (one-shot errors, power cuts, torn writes, short reads, mmap
// refusal), and the PosixEnv errno→Status taxonomy that retry and fallback
// decisions key on.

#include "support/fault_env.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "storage/env.h"
#include "support/tally_env.h"
#include "util/status.h"

namespace jim::storage {
namespace {

std::string TestDir(const std::string& name) {
  return ::testing::TempDir() + "fault_env_" + name;
}

util::Status WriteThrough(Env& env, const std::string& path,
                          const std::string& contents, bool sync) {
  auto file = env.NewWritableFile(path);
  if (!file.ok()) return file.status();
  RETURN_IF_ERROR((*file)->Append(contents));
  if (sync) RETURN_IF_ERROR((*file)->Sync());
  return (*file)->Close();
}

TEST(FaultEnvTest, OperationsAreCountedAndLabeled) {
  FaultInjectionEnv env;
  ASSERT_TRUE(WriteThrough(env, "v/a.txt", "hello", /*sync=*/true).ok());
  // create, append, fsync, close — one countable operation each.
  ASSERT_EQ(env.op_count(), 4u);
  EXPECT_NE(env.schedule()[0].find("create"), std::string::npos);
  EXPECT_NE(env.schedule()[1].find("append"), std::string::npos);
  EXPECT_NE(env.schedule()[2].find("fsync"), std::string::npos);
  EXPECT_NE(env.schedule()[3].find("close"), std::string::npos);
}

TEST(FaultEnvTest, ModelFilesAreVirtualAndReadable) {
  FaultInjectionEnv env;
  ASSERT_TRUE(WriteThrough(env, "v/a.txt", "hello", /*sync=*/false).ok());
  const auto read = env.ReadFileToString("v/a.txt");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, "hello");
  const auto size = env.FileSize("v/a.txt");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 5u);
  const auto listed = env.ListDirectory("v");
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ((*listed)[0], "a.txt");
  // Nothing real was written anywhere.
  const auto missing = DefaultEnv()->FileSize("v/a.txt");
  EXPECT_FALSE(missing.ok());
}

TEST(FaultEnvTest, FailAtOpIsOneShotAndRetryRecovers) {
  FaultInjectionEnv fault;
  // A TallyEnv in front of the fault schedule: the retry count is asserted
  // twice below — once from the injectable clock, once from the seam's
  // tally — so the two observability paths cross-check each other.
  TallyEnv env(&fault);
  // Fault the append (op #1 of the atomic write: create=0, append=1).
  fault.FailAtOp(1, util::UnavailableError("injected EINTR"));
  RetryPolicy policy;
  const util::Status status = RetryWithBackoff(env, policy, [&] {
    return WriteFileAtomically(env, "v/b.txt", "payload");
  });
  ASSERT_TRUE(status.ok()) << status;
  // Exactly one backoff sleep, recorded through the injectable clock.
  EXPECT_EQ(fault.sleeps_recorded(), 1u);
  EXPECT_GT(fault.micros_slept(), 0u);
  // ... and mirrored by the decorator: one retry, one counted failure.
  EXPECT_EQ(env.counts().sleeps, 1u);
  EXPECT_EQ(env.counts().micros_slept, fault.micros_slept());
  EXPECT_GE(env.counts().failures, 1u);
  const auto read = env.ReadFileToString("v/b.txt");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "payload");
}

TEST(FaultEnvTest, RetryGivesUpAfterMaxAttempts) {
  FaultInjectionEnv env;
  // Each failed-at-create attempt burns exactly one operation, so three
  // armed faults at consecutive indices starve all three attempts.
  env.FailAtOp(0, util::UnavailableError("still busy"));
  env.FailAtOp(1, util::UnavailableError("still busy"));
  env.FailAtOp(2, util::UnavailableError("still busy"));
  RetryPolicy policy;
  const util::Status status = RetryWithBackoff(env, policy, [&] {
    return WriteFileAtomically(env, "v/c.txt", "payload");
  });
  EXPECT_EQ(status.code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(env.sleeps_recorded(), 2u);  // max_attempts - 1 backoffs
}

TEST(FaultEnvTest, NonTransientErrorsAreNotRetried) {
  FaultInjectionEnv env;
  env.FailAtOp(0, util::ResourceExhaustedError("disk full (ENOSPC)"));
  RetryPolicy policy;
  const util::Status status = RetryWithBackoff(env, policy, [&] {
    return WriteFileAtomically(env, "v/d.txt", "payload");
  });
  EXPECT_EQ(status.code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(env.sleeps_recorded(), 0u);
}

TEST(FaultEnvTest, CrashFreezesEverythingAfterTheCutPoint) {
  FaultInjectionEnv env;
  ASSERT_TRUE(WriteThrough(env, "v/pre.txt", "pre", /*sync=*/true).ok());
  env.CrashAtOp(env.op_count());
  const util::Status status = WriteThrough(env, "v/post.txt", "post",
                                           /*sync=*/true);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInternal);
  EXPECT_NE(status.message().find("simulated power loss"),
            std::string::npos);
  EXPECT_TRUE(env.dead());
  // Every later operation fails too — the process is gone.
  EXPECT_FALSE(env.ReadFileToString("v/pre.txt").ok());
  EXPECT_FALSE(env.RemoveFile("v/pre.txt").ok());
}

TEST(FaultEnvTest, DurabilityRequiresBothFsyncBarriers) {
  // Appended but never-synced data, and synced data whose directory entry
  // was never synced, both vanish in a strict power cut; the volatile view
  // (kMetadataFlushed) keeps the entries but still only synced *data*.
  FaultInjectionEnv env;
  ASSERT_TRUE(WriteThrough(env, "v/unsynced.txt", "gone", /*sync=*/false)
                  .ok());
  ASSERT_TRUE(WriteThrough(env, "v/synced.txt", "kept", /*sync=*/true).ok());
  // Only now is the *namespace* durable — for both entries.
  ASSERT_TRUE(env.SyncDirectory("v").ok());
  ASSERT_TRUE(WriteThrough(env, "v/late.txt", "lost-entry", /*sync=*/true)
                  .ok());  // entry never SyncDirectory'd

  const std::string strict = TestDir("strict");
  ASSERT_TRUE(env.ReplayDurableInto("v", strict,
                                    FaultInjectionEnv::ReplayMode::kStrict)
                  .ok());
  Env& real = *DefaultEnv();
  const auto kept = real.ReadFileToString(strict + "/synced.txt");
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_EQ(*kept, "kept");
  const auto unsynced = real.ReadFileToString(strict + "/unsynced.txt");
  ASSERT_TRUE(unsynced.ok()) << unsynced.status();
  EXPECT_EQ(*unsynced, "");  // entry durable, data was never fsync'd
  EXPECT_FALSE(real.ReadFileToString(strict + "/late.txt").ok());

  const std::string flushed = TestDir("flushed");
  ASSERT_TRUE(
      env.ReplayDurableInto("v", flushed,
                            FaultInjectionEnv::ReplayMode::kMetadataFlushed)
          .ok());
  const auto late = real.ReadFileToString(flushed + "/late.txt");
  ASSERT_TRUE(late.ok()) << late.status();
  EXPECT_EQ(*late, "lost-entry");
}

TEST(FaultEnvTest, RenameIsDurableOnlyAfterDirectorySync) {
  FaultInjectionEnv env;
  ASSERT_TRUE(WriteThrough(env, "v/f.tmp", "data", /*sync=*/true).ok());
  ASSERT_TRUE(env.SyncDirectory("v").ok());
  ASSERT_TRUE(env.RenameReplacing("v/f.tmp", "v/f.txt").ok());

  // Before the barrier: the old name survives a strict cut.
  const std::string before = TestDir("rename_before");
  ASSERT_TRUE(env.ReplayDurableInto("v", before,
                                    FaultInjectionEnv::ReplayMode::kStrict)
                  .ok());
  Env& real = *DefaultEnv();
  EXPECT_TRUE(real.ReadFileToString(before + "/f.tmp").ok());
  EXPECT_FALSE(real.ReadFileToString(before + "/f.txt").ok());

  ASSERT_TRUE(env.SyncDirectory("v").ok());
  const std::string after = TestDir("rename_after");
  ASSERT_TRUE(env.ReplayDurableInto("v", after,
                                    FaultInjectionEnv::ReplayMode::kStrict)
                  .ok());
  EXPECT_FALSE(real.ReadFileToString(after + "/f.tmp").ok());
  const auto renamed = real.ReadFileToString(after + "/f.txt");
  ASSERT_TRUE(renamed.ok());
  EXPECT_EQ(*renamed, "data");
}

TEST(FaultEnvTest, TornWritesLandAPrefixAtTheFailurePoint) {
  FaultInjectionEnv env;
  env.set_torn_write_bytes(3);
  env.FailAtOp(1, util::InternalError("EIO mid-write"));
  auto file = env.NewWritableFile("v/torn.txt");
  ASSERT_TRUE(file.ok());
  EXPECT_FALSE((*file)->Append("abcdefgh").ok());
  const auto read = env.ReadFileToString("v/torn.txt");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "abc");  // the first torn_write_bytes landed anyway
}

TEST(FaultEnvTest, TornReplayTailsAreSeedDeterministic) {
  const auto replay = [](uint64_t seed, const std::string& dir) {
    FaultInjectionEnv env;
    auto file = env.NewWritableFile("v/t.bin");
    EXPECT_TRUE(file.ok());
    EXPECT_TRUE((*file)->Append("synced-part").ok());
    EXPECT_TRUE((*file)->Sync().ok());
    EXPECT_TRUE((*file)->Append("unsynced-tail-of-many-bytes").ok());
    EXPECT_TRUE((*file)->Close().ok());
    EXPECT_TRUE(env.SyncDirectory("v").ok());
    EXPECT_TRUE(
        env.ReplayDurableInto("v", dir,
                              FaultInjectionEnv::ReplayMode::kStrict, seed)
            .ok());
    auto content = DefaultEnv()->ReadFileToString(dir + "/t.bin");
    EXPECT_TRUE(content.ok());
    return content.ok() ? *content : std::string();
  };
  const std::string a = replay(77, TestDir("torn_a"));
  const std::string b = replay(77, TestDir("torn_b"));
  EXPECT_EQ(a, b);  // same seed, same torn image — reproducible failures
  EXPECT_EQ(a.compare(0, 11, "synced-part"), 0);
}

TEST(FaultEnvTest, ShortReadsTruncateWholeFileReads) {
  const std::string path = TestDir("short") + ".txt";
  ASSERT_TRUE(WriteThrough(*DefaultEnv(), path, "0123456789",
                           /*sync=*/false)
                  .ok());
  FaultInjectionEnv env;
  env.ShortReadAtOp(0, 4);
  const auto read = env.ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "0123");
  // One-shot: the next read sees everything.
  const auto full = env.ReadFileToString(path);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*full, "0123456789");
}

TEST(FaultEnvTest, MmapRefusalIsTransientTyped) {
  FaultInjectionEnv env;
  env.set_refuse_mmap(true);
  const auto mapped = env.MapReadOnly("anything");
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), util::StatusCode::kUnavailable);
}

// --- PosixEnv: the errno→Status taxonomy every decision keys on ----------

TEST(PosixEnvTest, MissingFilesAreNotFoundWithErrnoDetail) {
  Env& env = *DefaultEnv();
  const std::string missing = TestDir("never_written") + "/nope.txt";
  for (const util::Status& status :
       {env.ReadFileToString(missing).status(),
        env.MapReadOnly(missing).status(), env.FileSize(missing).status(),
        env.RemoveFile(missing)}) {
    EXPECT_EQ(status.code(), util::StatusCode::kNotFound) << status;
    EXPECT_NE(status.message().find("errno"), std::string::npos) << status;
  }
}

TEST(PosixEnvTest, EmptyFilesCannotBeMapped) {
  Env& env = *DefaultEnv();
  const std::string path = TestDir("empty") + ".bin";
  ASSERT_TRUE(WriteThrough(env, path, "", /*sync=*/false).ok());
  const auto mapped = env.MapReadOnly(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(mapped.status().message().find("empty file"), std::string::npos);
}

TEST(PosixEnvTest, AtomicWriteLeavesNoTmpBehind) {
  Env& env = *DefaultEnv();
  const std::string dir = TestDir("atomic");
  ASSERT_TRUE(env.CreateDirectories(dir).ok());
  const std::string path = dir + "/out.txt";
  ASSERT_TRUE(WriteFileAtomically(env, path, "contents").ok());
  const auto read = env.ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "contents");
  EXPECT_FALSE(env.FileSize(path + ".tmp").ok());
  // A failing write cleans its staging file up too (asserted against the
  // fault env's namespace — its writes are virtual by design).
  FaultInjectionEnv faulty;
  faulty.FailAtOp(1, util::InternalError("EIO"));
  EXPECT_FALSE(WriteFileAtomically(faulty, "v/fail.txt", "x").ok());
  EXPECT_FALSE(faulty.FileSize("v/fail.txt.tmp").ok());
  EXPECT_FALSE(faulty.FileSize("v/fail.txt").ok());
}

TEST(PosixEnvTest, ParentDirectoryCoversTheShapes) {
  EXPECT_EQ(ParentDirectory("a/b/c.txt"), "a/b");
  EXPECT_EQ(ParentDirectory("/c.txt"), "/");
  EXPECT_EQ(ParentDirectory("c.txt"), ".");
}

}  // namespace
}  // namespace jim::storage
