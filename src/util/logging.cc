#include "util/logging.h"

#include <atomic>
#include <cctype>
#include <cstdio>

#include "util/stopwatch.h"
#include "util/string_util.h"

namespace jim::util {

namespace {

/// -1 = not yet resolved; otherwise the LogLevel value. The JIM_LOG_LEVEL
/// environment variable is consulted once, on the first threshold read, so
/// processes can raise/lower verbosity without a code change.
std::atomic<int> g_log_level{-1};

LogLevel ResolveDefaultLevel() {
  const char* env = std::getenv("JIM_LOG_LEVEL");
  if (env != nullptr && *env != '\0') {
    if (const auto parsed = ParseLogLevel(env)) return *parsed;
    std::fprintf(stderr,
                 "[W logging.cc] unrecognized JIM_LOG_LEVEL '%s'; using info\n",
                 env);
  }
  return LogLevel::kInfo;
}

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kFatal:
      return "F";
  }
  return "?";
}

}  // namespace

LogLevel GetLogLevel() {
  int state = g_log_level.load();
  if (state < 0) {
    // Benign race: concurrent first reads resolve the same env var to the
    // same value, so the duplicated store is idempotent.
    state = static_cast<int>(ResolveDefaultLevel());
    g_log_level.store(state);
  }
  return static_cast<LogLevel>(state);
}

std::optional<LogLevel> ParseLogLevel(std::string_view text) {
  std::string lowered;
  lowered.reserve(text.size());
  for (const char c : StripWhitespace(text)) {
    lowered.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lowered == "debug" || lowered == "d" || lowered == "0") {
    return LogLevel::kDebug;
  }
  if (lowered == "info" || lowered == "i" || lowered == "1") {
    return LogLevel::kInfo;
  }
  if (lowered == "warning" || lowered == "warn" || lowered == "w" ||
      lowered == "2") {
    return LogLevel::kWarning;
  }
  if (lowered == "error" || lowered == "e" || lowered == "3") {
    return LogLevel::kError;
  }
  if (lowered == "fatal" || lowered == "f" || lowered == "4") {
    return LogLevel::kFatal;
  }
  return std::nullopt;
}

namespace internal_logging {

int64_t MonotonicLogMicros() {
  // The epoch is the first call, i.e. effectively process start for any
  // process that logs; absolute values only matter relative to each other.
  static const Stopwatch* clock = new Stopwatch();  // never freed
  return clock->ElapsedMicros();
}

int LogThreadId() {
  static std::atomic<int> next_id{0};
  thread_local const int id = next_id.fetch_add(1);
  return id;
}

std::string FormatLogPrefix(LogLevel level, const char* file, int line) {
  // Strip the directory part for terser log lines.
  const char* basename = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') basename = p + 1;
  }
  const int64_t micros = MonotonicLogMicros();
  return StrFormat("[%s +%lld.%03lldms T%d %s:%d] ", LevelTag(level),
                   static_cast<long long>(micros / 1000),
                   static_cast<long long>(micros % 1000), LogThreadId(),
                   basename, line);
}

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << FormatLogPrefix(level, file, line);
}

LogMessage::~LogMessage() {
  if (level_ >= GetLogLevel() || level_ == LogLevel::kFatal) {
    std::fprintf(stderr, "%s\n", stream_.str().c_str());
    std::fflush(stderr);
  }
  if (level_ == LogLevel::kFatal) {
    std::abort();
  }
}

}  // namespace internal_logging
}  // namespace jim::util
