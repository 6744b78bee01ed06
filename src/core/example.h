#ifndef JIM_CORE_EXAMPLE_H_
#define JIM_CORE_EXAMPLE_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace jim::core {

/// A membership-query answer: the user wants the tuple in the join result
/// (positive) or not (negative). [Angluin 1988]-style labels.
enum class Label { kPositive, kNegative };

inline std::string_view LabelToString(Label label) {
  return label == Label::kPositive ? "+" : "-";
}

/// One labeled example: a tuple of the instance plus its user label.
struct LabeledExample {
  size_t tuple_index = 0;
  Label label = Label::kPositive;
};

using LabeledExamples = std::vector<LabeledExample>;

}  // namespace jim::core

#endif  // JIM_CORE_EXAMPLE_H_
