#ifndef JIM_UTIL_STATUS_H_
#define JIM_UTIL_STATUS_H_

#include <cstdlib>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace jim::util {

/// Canonical error space, modeled after absl::StatusCode.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kFailedPrecondition = 4,
  kOutOfRange = 5,
  kUnimplemented = 6,
  kInternal = 7,
  kResourceExhausted = 8,
  /// A transient failure (interrupted syscall, busy resource, table-full
  /// races): retrying the same operation after a backoff may succeed.
  /// storage::RetryWithBackoff retries exactly this code.
  kUnavailable = 9,
};

/// Returns a stable human-readable name for `code` (e.g. "INVALID_ARGUMENT").
std::string_view StatusCodeToString(StatusCode code);

/// Result of an operation that can fail without a payload.
///
/// JIM follows the Google style guide: no exceptions cross public API
/// boundaries. Fallible operations return `Status` (or `StatusOr<T>`); callers
/// either handle the error or use `RETURN_IF_ERROR` to propagate it.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CODE>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

// Factory helpers, mirroring absl::InvalidArgumentError etc.
Status OkStatus();
Status InvalidArgumentError(std::string message);
Status NotFoundError(std::string message);
Status AlreadyExistsError(std::string message);
Status FailedPreconditionError(std::string message);
Status OutOfRangeError(std::string message);
Status UnimplementedError(std::string message);
Status InternalError(std::string message);
Status ResourceExhaustedError(std::string message);
Status UnavailableError(std::string message);

/// Either a value of type `T` or an error `Status`. Never both.
///
/// Accessing the value of a non-OK StatusOr aborts the process (this is a
/// programming error, equivalent to dereferencing a disengaged optional).
template <typename T>
class StatusOr {
 public:
  /// Implicit construction from a value (mirrors absl::StatusOr).
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit construction from a non-OK status.
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.ok()) {
      // An OK status carries no value; this is a caller bug.
      status_ = Status(StatusCode::kInternal,
                       "StatusOr constructed from OK status without a value");
    }
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    AbortIfNotOk();
    return *value_;
  }
  T& value() & {
    AbortIfNotOk();
    return *value_;
  }
  T&& value() && {
    AbortIfNotOk();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` if this holds an error.
  T value_or(T fallback) const& {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  void AbortIfNotOk() const {
    if (!ok()) {
      std::abort();
    }
  }

  Status status_;
  std::optional<T> value_;
};

}  // namespace jim::util

/// Propagates a non-OK Status to the caller.
#define RETURN_IF_ERROR(expr)                       \
  do {                                              \
    ::jim::util::Status _status = (expr);           \
    if (!_status.ok()) return _status;              \
  } while (false)

#define JIM_STATUS_CONCAT_INNER_(x, y) x##y
#define JIM_STATUS_CONCAT_(x, y) JIM_STATUS_CONCAT_INNER_(x, y)

/// Evaluates `rexpr` (a StatusOr), propagating the error or binding the value.
/// Usage: ASSIGN_OR_RETURN(auto rel, catalog.Get("orders"));
#define ASSIGN_OR_RETURN(lhs, rexpr)                                  \
  auto JIM_STATUS_CONCAT_(_statusor_, __LINE__) = (rexpr);            \
  if (!JIM_STATUS_CONCAT_(_statusor_, __LINE__).ok())                 \
    return JIM_STATUS_CONCAT_(_statusor_, __LINE__).status();         \
  lhs = std::move(JIM_STATUS_CONCAT_(_statusor_, __LINE__)).value()

#endif  // JIM_UTIL_STATUS_H_
