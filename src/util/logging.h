#ifndef JIM_UTIL_LOGGING_H_
#define JIM_UTIL_LOGGING_H_

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace jim::util {

/// Severity levels for the process-wide logger.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

/// The minimum severity that is emitted to stderr: kInfo, unless the
/// JIM_LOG_LEVEL environment variable names another level (resolved lazily
/// on the first read).
LogLevel GetLogLevel();

/// Parses a log-level spelling: full names ("debug", "info", "warning",
/// "error", "fatal"), single letters ("d".."f"), or digits "0".."4" —
/// case-insensitive, surrounding whitespace ignored. nullopt otherwise.
/// This is the JIM_LOG_LEVEL grammar.
std::optional<LogLevel> ParseLogLevel(std::string_view text);

namespace internal_logging {

/// The "[I +12.345ms T0 file.cc:42] " prefix every emitted line carries:
/// severity tag, monotonic milliseconds since the process logging clock
/// started, a small dense thread id (first-log order), and the call site.
/// Exposed so tests can pin the format without scraping stderr.
std::string FormatLogPrefix(LogLevel level, const char* file, int line);

/// Microseconds since the process logging clock started (first use).
int64_t MonotonicLogMicros();

/// Dense id of the calling thread: 0, 1, 2, ... in first-log order.
int LogThreadId();

/// Accumulates one log line and emits it on destruction.
/// Not for direct use; see the JIM_LOG / JIM_CHECK macros below.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Swallows a streamed expression when the log statement is compiled out.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

/// Turns a streamed expression into void so the ?: in JIM_CHECK type-checks.
/// operator& binds looser than operator<<, so the whole chain runs first.
class LogMessageVoidify {
 public:
  void operator&(std::ostream&) {}
};

}  // namespace internal_logging
}  // namespace jim::util

/// Streams a message at the given severity: JIM_LOG(kInfo) << "hello";
/// kFatal aborts the process after emitting the message.
#define JIM_LOG(severity)                                           \
  ::jim::util::internal_logging::LogMessage(                        \
      ::jim::util::LogLevel::severity, __FILE__, __LINE__)          \
      .stream()

// The JIM_CHECK / JIM_DCHECK assertion family lives in util/check.h (which
// needs the LogMessage machinery above, hence the mutual include — both
// headers are guard-protected, so either include order works). Pulled in
// here so the many existing `#include "util/logging.h"` users keep seeing
// the macros.
#include "util/check.h"

#endif  // JIM_UTIL_LOGGING_H_
