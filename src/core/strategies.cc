#include "core/strategies.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "core/speculation.h"
#include "exec/parallel.h"
#include "util/logging.h"

namespace jim::core {

size_t Strategy::PickClass(const InferenceEngine& engine) {
  const std::vector<size_t>& candidates = engine.InformativeClasses();
  JIM_CHECK(!candidates.empty()) << "PickClass on a finished engine";
  const std::vector<double> scores = Score(engine, candidates);
  JIM_CHECK_EQ(scores.size(), candidates.size());
  size_t best = 0;
  for (size_t i = 1; i < candidates.size(); ++i) {
    if (scores[i] > scores[best]) best = i;
  }
  return candidates[best];
}

std::vector<size_t> Strategy::TopK(const InferenceEngine& engine, size_t k) {
  const std::vector<size_t>& candidates = engine.InformativeClasses();
  const std::vector<double> scores = Score(engine, candidates);
  JIM_CHECK_EQ(scores.size(), candidates.size());
  std::vector<size_t> order(candidates.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&scores](size_t a, size_t b) {
    return scores[a] > scores[b];
  });
  std::vector<size_t> top;
  top.reserve(std::min(k, order.size()));
  for (size_t i = 0; i < order.size() && i < k; ++i) {
    top.push_back(candidates[order[i]]);
  }
  return top;
}

// ---------------------------------------------------------------- Random --

RandomStrategy::RandomStrategy(uint64_t seed) : rng_(seed) {}

std::vector<double> RandomStrategy::Score(
    const InferenceEngine& engine, const std::vector<size_t>& candidates) {
  // Random scores, weighted so that larger classes are proportionally more
  // likely to take the maximum — this approximates a uniform pick over
  // informative tuples when used through TopK.
  std::vector<double> scores(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    const double u = rng_.UniformDouble();
    const double weight =
        static_cast<double>(engine.tuple_class(candidates[i]).size());
    // max of `weight` i.i.d. uniforms has CDF u^weight; u^(1/weight) samples
    // it, making argmax distributed proportionally to class sizes.
    scores[i] = std::pow(u, 1.0 / weight);
  }
  return scores;
}

size_t RandomStrategy::PickClass(const InferenceEngine& engine) {
  // Exact tuple-uniform choice: pick a random informative tuple and return
  // its class.
  const std::vector<size_t>& candidates = engine.InformativeClasses();
  JIM_CHECK(!candidates.empty());
  size_t total = 0;
  for (size_t c : candidates) total += engine.tuple_class(c).size();
  int64_t pick = rng_.UniformInt(0, static_cast<int64_t>(total) - 1);
  for (size_t c : candidates) {
    pick -= static_cast<int64_t>(engine.tuple_class(c).size());
    if (pick < 0) return c;
  }
  return candidates.back();
}

// ----------------------------------------------------------------- Local --

LocalStrategy::LocalStrategy(Direction direction) : direction_(direction) {}

std::string_view LocalStrategy::name() const {
  return direction_ == Direction::kBottomUp ? "local-bottom-up"
                                            : "local-top-down";
}

std::vector<double> LocalStrategy::Score(
    const InferenceEngine& engine, const std::vector<size_t>& candidates) {
  std::vector<double> scores(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    // Candidates are informative, so the engine's knowledge cache is fresh —
    // no meet needed to read the rank of K = θ_P ∧ Part(t).
    const double rank =
        static_cast<double>(engine.ClassKnowledgeRank(candidates[i]));
    scores[i] = direction_ == Direction::kBottomUp ? -rank : rank;
  }
  return scores;
}

// ------------------------------------------------------------- Lookahead --

LookaheadStrategy::LookaheadStrategy(Objective objective, double alpha,
                                     size_t max_candidates)
    : objective_(objective), alpha_(alpha), max_candidates_(max_candidates) {
  switch (objective_) {
    case Objective::kMinMax:
      name_ = "lookahead-minmax";
      break;
    case Objective::kExpected:
      name_ = "lookahead-expected";
      break;
    case Objective::kEntropy:
      name_ = "lookahead-entropy";
      break;
  }
}

std::string_view LookaheadStrategy::name() const { return name_; }

double LookaheadStrategy::Aggregate(size_t n_plus, size_t n_minus) const {
  const double a = static_cast<double>(n_plus);
  const double b = static_cast<double>(n_minus);
  switch (objective_) {
    case Objective::kMinMax:
      return std::min(a, b);
    case Objective::kExpected:
      return (a + b) / 2.0;
    case Objective::kEntropy: {
      const double total = a + b;
      const double p = a / total;
      double entropy;
      if (std::abs(alpha_ - 1.0) < 1e-9) {
        // Shannon (limit of the Tsallis family as α → 1), in nats.
        entropy = 0.0;
        if (p > 0) entropy -= p * std::log(p);
        if (p < 1) entropy -= (1 - p) * std::log(1 - p);
      } else {
        // Tsallis entropy H_α(p) = (1 - p^α - (1-p)^α) / (α - 1).
        entropy =
            (1.0 - std::pow(p, alpha_) - std::pow(1 - p, alpha_)) /
            (alpha_ - 1.0);
      }
      return total * entropy;
    }
  }
  return 0;
}

std::vector<double> LookaheadStrategy::Score(
    const InferenceEngine& engine, const std::vector<size_t>& candidates) {
  std::vector<double> scores;
  ScanCandidates(engine, candidates, scores, nullptr);
  return scores;
}

bool LookaheadStrategy::CutoffUsable() const {
  if (objective_ != Objective::kEntropy) return true;
  // The Shannon branch fires for α ≈ 1 > 0; plain Tsallis needs α > 0 for
  // monotonicity (α ≤ 0 puts negative exponents on the counts).
  return alpha_ > 0;
}

namespace {

/// Strategy-objective adapter for the engine's bounded simulation: the upper
/// bound at (pos_cap, neg_cap) is the objective itself (monotone — see
/// LookaheadStrategy::CutoffUsable), widened for the entropy family by a
/// multiplicative ulp-scale slack so floating-point rounding of log/pow can
/// never make the "bound" dip below an achievable score.
class MonotoneBound final : public InferenceEngine::AggregateBoundFn {
 public:
  MonotoneBound(const LookaheadStrategy& strategy, bool slack)
      : strategy_(strategy), slack_(slack) {}
  double UpperBound(size_t pos_cap, size_t neg_cap) const override {
    const double value = strategy_.ObjectiveValue(pos_cap, neg_cap);
    if (!slack_) return value;  // min/mean: exact in double up to 2^53
    return value * (1.0 + 1e-9) + 1e-9;
  }

 private:
  const LookaheadStrategy& strategy_;
  const bool slack_;
};

}  // namespace

void LookaheadStrategy::ScanCandidates(
    const InferenceEngine& engine, const std::vector<size_t>& candidates,
    std::vector<double>& scores, std::vector<double>* skip_bounds) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  // Deterministic candidate cap: score an evenly spaced subsample when the
  // pool is too large; unsampled candidates keep -inf and are never picked.
  // Sampled candidate j → slot j*n/cap, strictly increasing in j, so every
  // chunk writes disjoint slots and the result is identical to the serial
  // path bit for bit.
  const size_t n = candidates.size();
  const size_t cap = max_candidates_ == 0 ? n : std::min(n, max_candidates_);
  scores.assign(n, kNegInf);
  const bool cutoff = skip_bounds != nullptr;
  if (cutoff) skip_bounds->assign(n, std::numeric_limits<double>::quiet_NaN());
  InferenceEngine::LookaheadBoundsCache cache;
  engine.PrepareLookaheadBounds(cache);
  const MonotoneBound objective(*this, objective_ == Objective::kEntropy);
  // The running best is a relaxed atomic maximum. Serially it is a plain
  // running maximum, so later candidates face the tightest threshold seen so
  // far; in parallel a chunk reading a stale (smaller) best merely skips
  // less. Every skipped candidate's true score stays strictly below the
  // final maximum, so the argmax over `scores` is the exhaustive one — the
  // scores it compares are bitwise the exhaustive ones wherever they were
  // computed, and every candidate achieving the maximum is always computed.
  // Without cutoff the threshold stays −∞ and nothing is ever skipped.
  std::atomic<double> best{kNegInf};
  exec::ThreadPool* pool = use_shared_pool_ ? &exec::SharedPool() : pool_;
  const bool parallel = pool != nullptr && pool->threads() > 1 &&
                        cap >= kParallelLookaheadMinCandidates;
  auto score_one = [&](size_t j, size_t /*chunk*/) {
    const size_t i = j * n / cap;
    const double threshold =
        cutoff ? best.load(std::memory_order_relaxed) : kNegInf;
    InferenceEngine::LabelImpactPair both;
    double bound = kNegInf;
    if (!engine.SimulateLabelBothBounded(candidates[i], cache, &objective,
                                         threshold, &both, &bound)) {
      (*skip_bounds)[i] = bound;
      return;
    }
    const double score =
        Aggregate(both.positive.pruned_tuples, both.negative.pruned_tuples);
    scores[i] = score;
    double current = best.load(std::memory_order_relaxed);
    while (current < score &&
           !best.compare_exchange_weak(current, score,
                                       std::memory_order_relaxed)) {
    }
  };
  if (parallel) {
    pool->ParallelFor(cap, score_one);
  } else {
    for (size_t j = 0; j < cap; ++j) score_one(j, 0);
  }
}

size_t LookaheadStrategy::PickClass(const InferenceEngine& engine) {
  last_skips_.clear();
  last_evaluated_ = 0;
  if (!cutoff_enabled_ || !CutoffUsable()) {
    return Strategy::PickClass(engine);
  }
  const std::vector<size_t>& candidates = engine.InformativeClasses();
  JIM_CHECK(!candidates.empty()) << "PickClass on a finished engine";
  std::vector<double> scores;
  std::vector<double> skip_bounds;
  ScanCandidates(engine, candidates, scores, &skip_bounds);

  const size_t n = candidates.size();
  size_t best_i = 0;
  for (size_t i = 1; i < n; ++i) {
    if (scores[i] > scores[best_i]) best_i = i;
  }
  const size_t cap = max_candidates_ == 0 ? n : std::min(n, max_candidates_);
  for (size_t j = 0; j < cap; ++j) {
    const size_t i = j * n / cap;
    if (std::isnan(skip_bounds[i])) {
      ++last_evaluated_;
    } else {
      last_skips_.push_back(CutoffSkip{candidates[i], skip_bounds[i]});
    }
  }
  return candidates[best_i];
}

// --------------------------------------------------------------- Optimal --

namespace {

/// Memoized minimax over inference states, explored on one
/// SpeculativeSession: labels are applied and undone on the trail, so a tree
/// node costs O(classes pruned by its label) bookkeeping instead of the old
/// full-engine rescan (classify *every* class) plus an InferenceState copy
/// per answer branch. A state is summarized by its compact StateKey
/// (canonical label vectors + precomputed hash — no string rendering on the
/// memo path); the candidate iteration order is the session's ascending live
/// list, exactly the worklist order the rescan produced, so memoized values
/// and tie-breaks are unchanged.
class MinimaxSolver {
 public:
  MinimaxSolver(const InferenceEngine& engine, size_t node_budget)
      : session_(engine), node_budget_(node_budget) {}

  /// Worst-case questions needed from the session's current state.
  size_t Solve() {
    InferenceState::StateKey key = session_.state().MakeStateKey();
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    JIM_CHECK_LT(nodes_++, node_budget_)
        << "optimal strategy exceeded its node budget";

    // Iterating the live list directly is safe across the recursive
    // Apply/Undo below: every Apply is undone before the next NextLive read,
    // and the dancing-links restore is exact.
    size_t best = session_.num_live() == 0 ? 0 : SIZE_MAX;
    for (size_t c = session_.FirstLive(); c != session_.LiveEnd();
         c = session_.NextLive(c)) {
      const size_t cost = 1 + WorstAnswer(c);
      best = std::min(best, cost);
      if (best == 1) break;  // cannot do better than one question
    }
    memo_.emplace(std::move(key), best);
    return best;
  }

  /// max over the two answers of Solve(current state + answer).
  size_t WorstAnswer(size_t class_id) {
    size_t worst = 0;
    for (Label label : {Label::kPositive, Label::kNegative}) {
      session_.Apply(class_id, label);
      worst = std::max(worst, Solve());
      session_.Undo();
    }
    return worst;
  }

 private:
  SpeculativeSession session_;
  size_t node_budget_;
  size_t nodes_ = 0;
  std::unordered_map<InferenceState::StateKey, size_t,
                     InferenceState::StateKeyHash>
      memo_;
};

}  // namespace

OptimalStrategy::OptimalStrategy(size_t node_budget)
    : node_budget_(node_budget) {}

std::vector<double> OptimalStrategy::Score(
    const InferenceEngine& engine, const std::vector<size_t>& candidates) {
  MinimaxSolver solver(engine, node_budget_);
  std::vector<double> scores(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    scores[i] = -static_cast<double>(solver.WorstAnswer(candidates[i]));
  }
  return scores;
}

size_t OptimalWorstCaseQuestions(const InferenceEngine& engine,
                                 size_t node_budget) {
  MinimaxSolver solver(engine, node_budget);
  return solver.Solve();
}

// --------------------------------------------------------------- Factory --

util::StatusOr<std::unique_ptr<Strategy>> MakeStrategy(std::string_view name,
                                                       uint64_t seed,
                                                       double alpha) {
  std::unique_ptr<Strategy> strategy;
  if (name == "random") {
    strategy = std::make_unique<RandomStrategy>(seed);
  } else if (name == "local-bottom-up") {
    strategy = std::make_unique<LocalStrategy>(LocalStrategy::Direction::kBottomUp);
  } else if (name == "local-top-down") {
    strategy = std::make_unique<LocalStrategy>(LocalStrategy::Direction::kTopDown);
  } else if (name == "lookahead-minmax") {
    strategy = std::make_unique<LookaheadStrategy>(
        LookaheadStrategy::Objective::kMinMax);
  } else if (name == "lookahead-expected") {
    strategy = std::make_unique<LookaheadStrategy>(
        LookaheadStrategy::Objective::kExpected);
  } else if (name == "lookahead-entropy") {
    strategy = std::make_unique<LookaheadStrategy>(
        LookaheadStrategy::Objective::kEntropy, alpha);
  } else if (name == "optimal") {
    strategy = std::make_unique<OptimalStrategy>();
  } else {
    return util::InvalidArgumentError("unknown strategy '" +
                                      std::string(name) + "'");
  }
  return strategy;
}

std::vector<std::string> KnownStrategyNames() {
  return {"random",           "local-bottom-up",    "local-top-down",
          "lookahead-minmax", "lookahead-expected", "lookahead-entropy",
          "optimal"};
}

}  // namespace jim::core
