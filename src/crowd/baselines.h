#ifndef JIM_CROWD_BASELINES_H_
#define JIM_CROWD_BASELINES_H_

#include "core/join_predicate.h"
#include "crowd/crowd_join.h"
#include "relational/relation.h"

namespace jim::crowd {

/// The transitivity-exploiting crowd join of Wang et al. [5] ("Leveraging
/// transitive relations for crowdsourced joins", SIGMOD 2013), rebuilt as
/// the paper's comparison point. It targets entity-resolution-style joins:
/// the goal is an *equivalence* on items, so answers propagate —
///   A≈B ∧ B≈C ⇒ A≈C        (positive transitivity)
///   A≈B ∧ B≉C ⇒ A≉C        (anti-transitivity)
/// and implied pair questions are never paid for.
///
/// Contrast with JIM (paper §1): this baseline only handles binary
/// same-entity joins; JIM handles arbitrary n-ary join *predicates* and
/// additionally uses labels to choose the next question.
///
/// `items` are the records to be matched (e.g. the 81 Set cards);
/// `pair_goal` is the ground-truth matching predicate over the pair schema
/// (left item ++ right item) and must be an equivalence — e.g. "same color".
/// Pairs are asked in a random order (as in [5], which orders by machine
/// match probability; with no machine scores we randomize).
CrowdRunResult RunTransitiveCrowdJoin(const rel::Relation& items,
                                      const core::JoinPredicate& pair_goal,
                                      const CrowdOptions& options);

}  // namespace jim::crowd

#endif  // JIM_CROWD_BASELINES_H_
