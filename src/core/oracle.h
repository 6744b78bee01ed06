#ifndef JIM_CORE_ORACLE_H_
#define JIM_CORE_ORACLE_H_

#include <memory>
#include <string_view>

#include "core/example.h"
#include "core/join_predicate.h"
#include "relational/relation.h"

namespace jim::core {

/// The labeling user. The paper's own experiments use "a program that labels
/// tuples w.r.t. a goal join query" — that program is ExactOracle below; the
/// console UI substitutes a human.
class Oracle {
 public:
  virtual ~Oracle() = default;

  virtual std::string_view name() const = 0;

  /// The label this user gives to `tuple`.
  virtual Label LabelFor(const rel::Tuple& tuple) = 0;
};

/// Labels exactly according to a goal predicate (a perfectly reliable user
/// who knows what she wants).
class ExactOracle : public Oracle {
 public:
  explicit ExactOracle(JoinPredicate goal) : goal_(std::move(goal)) {}

  std::string_view name() const override { return "exact"; }
  Label LabelFor(const rel::Tuple& tuple) override {
    return goal_.Selects(tuple) ? Label::kPositive : Label::kNegative;
  }

 private:
  JoinPredicate goal_;
};

}  // namespace jim::core

#endif  // JIM_CORE_ORACLE_H_
