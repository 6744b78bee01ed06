#ifndef JIM_TESTS_SUPPORT_NOISY_ORACLE_H_
#define JIM_TESTS_SUPPORT_NOISY_ORACLE_H_

#include <cstdint>
#include <string_view>
#include <utility>

#include "core/example.h"
#include "core/join_predicate.h"
#include "core/oracle.h"
#include "util/rng.h"

namespace jim::core {

inline Label Negate(Label label) {
  return label == Label::kPositive ? Label::kNegative : Label::kPositive;
}

/// Labels according to the goal but flips each answer independently with
/// probability `error_rate` — a model of an unreliable user, which the
/// tests use to drive sessions through contradictory labels.
class NoisyOracle : public Oracle {
 public:
  NoisyOracle(JoinPredicate goal, double error_rate, uint64_t seed)
      : goal_(std::move(goal)), error_rate_(error_rate), rng_(seed) {}

  std::string_view name() const override { return "noisy"; }
  Label LabelFor(const rel::Tuple& tuple) override {
    const Label truth =
        goal_.Selects(tuple) ? Label::kPositive : Label::kNegative;
    return rng_.Bernoulli(error_rate_) ? Negate(truth) : truth;
  }

 private:
  JoinPredicate goal_;
  double error_rate_;
  util::Rng rng_;
};

}  // namespace jim::core

#endif  // JIM_TESTS_SUPPORT_NOISY_ORACLE_H_
