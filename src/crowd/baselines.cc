#include "crowd/baselines.h"

#include <optional>
#include <vector>

#include "lattice/union_find.h"
#include "util/logging.h"
#include "util/rng.h"

namespace jim::crowd {

namespace {

/// The pair tuple (left item ++ right item) for goal evaluation.
rel::Tuple PairTuple(const rel::Relation& items, size_t a, size_t b) {
  rel::Tuple pair = items.row(a);
  const rel::Tuple& right = items.row(b);
  pair.insert(pair.end(), right.begin(), right.end());
  return pair;
}

/// Asks the crowd whether items a and b match; accounting into `result`.
bool AskPair(const rel::Relation& items, size_t a, size_t b,
             const core::JoinPredicate& pair_goal,
             const CrowdOptions& options, util::Rng& rng,
             CrowdRunResult* result) {
  const bool truth = pair_goal.Selects(PairTuple(items, a, b));
  size_t wrong_votes = 0;
  for (size_t w = 0; w < options.workers_per_question; ++w) {
    if (rng.Bernoulli(options.worker_error_rate)) ++wrong_votes;
  }
  ++result->questions;
  result->worker_answers += options.workers_per_question;
  result->total_cost += static_cast<double>(options.workers_per_question) *
                        options.price_per_answer;
  const bool majority_wrong = wrong_votes * 2 > options.workers_per_question;
  if (majority_wrong) ++result->majority_errors;
  return majority_wrong ? !truth : truth;
}

/// Checks the inferred clustering against the ground-truth matching.
bool ClusteringMatchesGoal(const rel::Relation& items,
                           const core::JoinPredicate& pair_goal,
                           lat::UnionFind& clusters) {
  for (size_t a = 0; a < items.num_rows(); ++a) {
    for (size_t b = a + 1; b < items.num_rows(); ++b) {
      const bool truth = pair_goal.Selects(PairTuple(items, a, b));
      if (truth != clusters.Connected(a, b)) return false;
    }
  }
  return true;
}

}  // namespace

CrowdRunResult RunTransitiveCrowdJoin(const rel::Relation& items,
                                      const core::JoinPredicate& pair_goal,
                                      const CrowdOptions& options) {
  JIM_CHECK(options.workers_per_question % 2 == 1);
  const size_t n = items.num_rows();
  util::Rng rng(options.seed);
  CrowdRunResult result;

  // Random question order over unordered pairs, as in [5] minus the machine
  // pre-scoring.
  std::vector<std::pair<size_t, size_t>> pairs;
  pairs.reserve(n * (n - 1) / 2);
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b) pairs.emplace_back(a, b);
  }
  rng.Shuffle(pairs);

  lat::UnionFind clusters(n);
  // cannot_link[cluster_root] = roots known distinct from it. Kept sparse:
  // re-rooted lazily after unions.
  std::vector<std::vector<size_t>> cannot_link(n);

  auto known_unmatched = [&](size_t a, size_t b) {
    const size_t ra = clusters.Find(a);
    const size_t rb = clusters.Find(b);
    for (size_t other : cannot_link[ra]) {
      if (clusters.Find(other) == rb) return true;
    }
    return false;
  };

  for (const auto& [a, b] : pairs) {
    if (clusters.Connected(a, b)) continue;   // implied positive: free
    if (known_unmatched(a, b)) continue;      // implied negative: free
    const bool matched = AskPair(items, a, b, pair_goal, options, rng, &result);
    if (matched) {
      const size_t ra = clusters.Find(a);
      const size_t rb = clusters.Find(b);
      clusters.Union(a, b);
      const size_t merged = clusters.Find(a);
      // Merge the cannot-link lists onto the new root.
      if (merged != ra) {
        cannot_link[merged].insert(cannot_link[merged].end(),
                                   cannot_link[ra].begin(),
                                   cannot_link[ra].end());
      }
      if (merged != rb) {
        cannot_link[merged].insert(cannot_link[merged].end(),
                                   cannot_link[rb].begin(),
                                   cannot_link[rb].end());
      }
    } else {
      const size_t ra = clusters.Find(a);
      const size_t rb = clusters.Find(b);
      cannot_link[ra].push_back(rb);
      cannot_link[rb].push_back(ra);
    }
  }

  result.correct = ClusteringMatchesGoal(items, pair_goal, clusters);
  return result;
}

}  // namespace jim::crowd
