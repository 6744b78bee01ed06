#include "exec/batch_runner.h"

#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/logging.h"

namespace jim::exec {

namespace {

core::SessionResult RunOne(const SessionSpec& spec) {
  JIM_SPAN(obs::kHistExecSessionMicros);
  JIM_COUNT(obs::kCounterExecBatchSessions);
  JIM_CHECK(spec.prototype != nullptr);
  JIM_CHECK(spec.make_strategy != nullptr);
  core::InferenceEngine engine = *spec.prototype;  // O(classes) copy
  std::unique_ptr<core::Strategy> strategy = spec.make_strategy();
  std::unique_ptr<core::Oracle> oracle =
      spec.make_oracle ? spec.make_oracle()
                       : std::make_unique<core::ExactOracle>(spec.goal);
  return core::RunSessionOnEngine(engine, spec.goal, *strategy, *oracle,
                                  spec.options);
}

}  // namespace

std::vector<core::SessionResult> BatchSessionRunner::Run(
    const std::vector<SessionSpec>& specs) const {
  JIM_COUNT(obs::kCounterExecBatchRuns);
  std::vector<core::SessionResult> results(specs.size());
  if (pool_ == nullptr || pool_->threads() <= 1 || specs.size() <= 1) {
    for (size_t i = 0; i < specs.size(); ++i) results[i] = RunOne(specs[i]);
    return results;
  }
  pool_->ParallelFor(specs.size(), [&specs, &results](size_t i, size_t) {
    results[i] = RunOne(specs[i]);
  });
  return results;
}

}  // namespace jim::exec
