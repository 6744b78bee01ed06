#ifndef JIM_TESTS_SUPPORT_PARALLEL_FOR_CALLS_H_
#define JIM_TESTS_SUPPORT_PARALLEL_FOR_CALLS_H_

#include <cstdint>

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace jim::exec {

/// The exec.parallel_for.calls made while `body` runs, with the metrics
/// registry switched on for the duration (metrics never steer a session).
/// A pooled parity run proves with it that it reached its pool: lookahead
/// scans below core::kParallelLookaheadMinCandidates score serially even
/// when handed one.
template <typename Body>
uint64_t ParallelForCallsDuring(const Body& body) {
  const bool was_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  const uint64_t before =
      registry.CounterValue(obs::kCounterExecParallelForCalls);
  body();
  const uint64_t calls =
      registry.CounterValue(obs::kCounterExecParallelForCalls) - before;
  obs::SetMetricsEnabled(was_enabled);
  return calls;
}

}  // namespace jim::exec

#endif  // JIM_TESTS_SUPPORT_PARALLEL_FOR_CALLS_H_
