#include "util/logging.h"

#include <gtest/gtest.h>

#include <regex>
#include <string>

namespace jim::util {
namespace {

TEST(ParseLogLevelTest, AcceptsNamesLettersAndDigits) {
  EXPECT_EQ(ParseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("INFO"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("Warning"), LogLevel::kWarning);
  EXPECT_EQ(ParseLogLevel("warn"), LogLevel::kWarning);
  EXPECT_EQ(ParseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("fatal"), LogLevel::kFatal);
  EXPECT_EQ(ParseLogLevel("d"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("E"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("0"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("4"), LogLevel::kFatal);
  EXPECT_EQ(ParseLogLevel("  info  "), LogLevel::kInfo);
}

TEST(ParseLogLevelTest, RejectsEverythingElse) {
  EXPECT_FALSE(ParseLogLevel("").has_value());
  EXPECT_FALSE(ParseLogLevel("verbose").has_value());
  EXPECT_FALSE(ParseLogLevel("5").has_value());
  EXPECT_FALSE(ParseLogLevel("-1").has_value());
  EXPECT_FALSE(ParseLogLevel("info extra").has_value());
}

TEST(LogPrefixTest, CarriesLevelTimestampThreadIdAndCallSite) {
  // "[I +12.345ms T0 logging_test.cc:42] " — pinned by regex so the
  // timestamp and thread id can be anything, but the shape cannot drift.
  const std::string prefix = internal_logging::FormatLogPrefix(
      LogLevel::kInfo, "tests/util/logging_test.cc", 42);
  EXPECT_TRUE(std::regex_match(
      prefix,
      std::regex(R"(\[I \+\d+\.\d{3}ms T\d+ logging_test\.cc:42\] )")))
      << "got: '" << prefix << "'";

  const std::string warning = internal_logging::FormatLogPrefix(
      LogLevel::kWarning, "x.cc", 7);
  EXPECT_EQ(warning[1], 'W');
}

TEST(LogPrefixTest, MonotonicClockNeverGoesBackwards) {
  const int64_t first = internal_logging::MonotonicLogMicros();
  const int64_t second = internal_logging::MonotonicLogMicros();
  EXPECT_GE(first, 0);
  EXPECT_GE(second, first);
}

TEST(LogPrefixTest, ThreadIdIsStablePerThread) {
  const int id = internal_logging::LogThreadId();
  EXPECT_GE(id, 0);
  EXPECT_EQ(internal_logging::LogThreadId(), id);
}

}  // namespace
}  // namespace jim::util
