#ifndef JIM_UTIL_CHECK_H_
#define JIM_UTIL_CHECK_H_

/// Runtime invariant checking, split out of util/logging.h so the assertion
/// vocabulary has one home:
///
///   JIM_CHECK(cond) << "context";   always on, release included — invariant
///                                   violations in the inference engine are
///                                   programming errors and must not silently
///                                   corrupt results.
///   JIM_DCHECK(cond) << "context";  debug builds only; compiled out under
///                                   NDEBUG (the streamed expression is still
///                                   type-checked but never evaluated), so hot
///                                   paths can assert freely.
///   JIM_CHECK_EQ/NE/LT/LE/GT/GE and the JIM_DCHECK_* twins stream both
///   operands into the failure message.
///
/// On top of the assertions sits the *invariant auditor*: load-bearing
/// structures (lat::Partition, core::InferenceState, core::InferenceEngine,
/// rel::Dictionary, the TupleStore backends) expose a `CheckInvariants()`
/// method that re-derives their internal contracts from scratch and
/// JIM_CHECK-fails on any disagreement. Tests call these directly; production
/// code wires them in via
///
///   JIM_AUDIT(CheckInvariants());
///
/// which runs the audit only when auditing is enabled — by compiling with
/// -DJIM_AUDIT_INVARIANTS (the ci.sh audit stage), by setting the
/// JIM_AUDIT_INVARIANTS=1 environment variable, or programmatically via
/// util::SetAuditInvariants(true) (what the parity suites do). Disabled, the
/// macro costs one predictable branch on a cached flag.

#include "util/logging.h"

namespace jim::util {

/// True when JIM_AUDIT blocks should run. Resolution order: an explicit
/// SetAuditInvariants call wins; otherwise the JIM_AUDIT_INVARIANTS compile
/// definition enables audits unconditionally; otherwise the
/// JIM_AUDIT_INVARIANTS environment variable ("" and "0" count as off). The
/// result is cached after the first query.
bool AuditInvariantsEnabled();

/// Overrides the audit flag for this process (tests and parity suites).
void SetAuditInvariants(bool enabled);

}  // namespace jim::util

/// Runs `expr` (typically `CheckInvariants()`) only when invariant auditing
/// is enabled; see AuditInvariantsEnabled for the switches.
#define JIM_AUDIT(expr)                               \
  do {                                                \
    if (::jim::util::AuditInvariantsEnabled()) {      \
      expr;                                           \
    }                                                 \
  } while (false)

/// Aborts with a message when `condition` is false. Always on (release too).
/// Additional context can be streamed: JIM_CHECK(n > 0) << "instance empty";
#define JIM_CHECK(condition)                                            \
  (condition) ? (void)0                                                 \
              : ::jim::util::internal_logging::LogMessageVoidify() &    \
                    ::jim::util::internal_logging::LogMessage(          \
                        ::jim::util::LogLevel::kFatal, __FILE__,        \
                        __LINE__)                                       \
                        .stream()                                       \
                    << "Check failed: " #condition " "

#define JIM_CHECK_OK(expr)                                             \
  do {                                                                 \
    const auto& _s = (expr);                                           \
    JIM_CHECK(_s.ok()) << _s.ToString();                               \
  } while (false)

#define JIM_CHECK_EQ(a, b) JIM_CHECK((a) == (b)) << " (" << (a) << " vs " << (b) << ") "
#define JIM_CHECK_NE(a, b) JIM_CHECK((a) != (b)) << " (" << (a) << " vs " << (b) << ") "
#define JIM_CHECK_LT(a, b) JIM_CHECK((a) < (b)) << " (" << (a) << " vs " << (b) << ") "
#define JIM_CHECK_LE(a, b) JIM_CHECK((a) <= (b)) << " (" << (a) << " vs " << (b) << ") "
#define JIM_CHECK_GT(a, b) JIM_CHECK((a) > (b)) << " (" << (a) << " vs " << (b) << ") "
#define JIM_CHECK_GE(a, b) JIM_CHECK((a) >= (b)) << " (" << (a) << " vs " << (b) << ") "

/// Debug-only checks: compiled out under NDEBUG (operands are type-checked
/// but never evaluated), so they are free on release hot paths.
#ifdef NDEBUG
#define JIM_DCHECK(condition) \
  while (false) JIM_CHECK(condition)
#else
#define JIM_DCHECK(condition) JIM_CHECK(condition)
#endif

#define JIM_DCHECK_EQ(a, b) JIM_DCHECK((a) == (b)) << " (" << (a) << " vs " << (b) << ") "
#define JIM_DCHECK_NE(a, b) JIM_DCHECK((a) != (b)) << " (" << (a) << " vs " << (b) << ") "
#define JIM_DCHECK_LT(a, b) JIM_DCHECK((a) < (b)) << " (" << (a) << " vs " << (b) << ") "
#define JIM_DCHECK_LE(a, b) JIM_DCHECK((a) <= (b)) << " (" << (a) << " vs " << (b) << ") "
#define JIM_DCHECK_GT(a, b) JIM_DCHECK((a) > (b)) << " (" << (a) << " vs " << (b) << ") "
#define JIM_DCHECK_GE(a, b) JIM_DCHECK((a) >= (b)) << " (" << (a) << " vs " << (b) << ") "

#endif  // JIM_UTIL_CHECK_H_
