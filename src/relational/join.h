#ifndef JIM_RELATIONAL_JOIN_H_
#define JIM_RELATIONAL_JOIN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "relational/relation.h"
#include "util/rng.h"
#include "util/status.h"

namespace jim::rel {

/// An equi-join condition: left.attribute[first] = right.attribute[second].
using JoinKeys = std::vector<std::pair<size_t, size_t>>;

/// Options shared by all join algorithms.
struct JoinOptions {
  /// Qualifiers applied to the output schema sides; empty keeps existing.
  std::string left_qualifier;
  std::string right_qualifier;
  std::string result_name = "join";

  /// Options that only set the result relation's name.
  static JoinOptions Named(std::string name) {
    JoinOptions options;
    options.result_name = std::move(name);
    return options;
  }
};

/// Θ(|L|·|R|) baseline; reference implementation the hash join is
/// property-tested against.
util::StatusOr<Relation> NestedLoopJoin(const Relation& left,
                                        const Relation& right,
                                        const JoinKeys& keys,
                                        const JoinOptions& options = {});

/// Classic build/probe hash join (build on the smaller input). NULL keys
/// never match (SQL semantics).
util::StatusOr<Relation> HashJoin(const Relation& left, const Relation& right,
                                  const JoinKeys& keys,
                                  const JoinOptions& options = {});

/// Full Cartesian product L × R. This is how JIM builds the space of
/// candidate tuples when the user supplies separate relations with no
/// integrity constraints.
util::StatusOr<Relation> CrossProduct(const Relation& left,
                                      const Relation& right,
                                      const JoinOptions& options = {});

/// Uniform sample (without replacement) of `sample_size` rows of L × R —
/// used to keep interactive instances tractable when |L|·|R| explodes.
/// Returns the full product if it has at most `sample_size` rows.
util::StatusOr<Relation> SampledCrossProduct(const Relation& left,
                                             const Relation& right,
                                             size_t sample_size,
                                             util::Rng& rng,
                                             const JoinOptions& options = {});

}  // namespace jim::rel

#endif  // JIM_RELATIONAL_JOIN_H_
