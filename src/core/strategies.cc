#include "core/strategies.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "exec/parallel.h"
#include "util/hash.h"
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
  // Deterministic candidate cap: score an evenly spaced subsample when the
  // pool is too large; unsampled candidates keep -inf and are never picked.
  // Sampled candidate j → slot j*n/cap, strictly increasing in j, so every
  // chunk writes disjoint slots and the result is identical to the serial
  // path bit for bit.
  const size_t n = candidates.size();
  const size_t cap = max_candidates_ == 0 ? n : std::min(n, max_candidates_);
  std::vector<double> scores(n, -std::numeric_limits<double>::infinity());
  engine.PrepareLookaheadColumns(columns_);
  exec::ThreadPool* pool = use_shared_pool_ ? &exec::SharedPool() : pool_;
  const bool parallel = pool != nullptr && pool->threads() > 1 &&
                        cap >= kParallelLookaheadMinCandidates;
  auto score_one = [&](size_t j, size_t /*chunk*/) {
    const size_t i = j * n / cap;
    const InferenceEngine::LabelImpactPair both =
        engine.SimulateLabelBoth(candidates[i], columns_);
    scores[i] =
        Aggregate(both.positive.pruned_tuples, both.negative.pruned_tuples);
  };
  if (parallel) {
    pool->ParallelFor(cap, score_one);
  } else {
    for (size_t j = 0; j < cap; ++j) score_one(j, 0);
  }
  last_evaluated_ = cap;
  return scores;
}

// --------------------------------------------------------------- Optimal --

namespace {

/// Hash of an InferenceState's words (the memo key).
struct WordsHash {
  size_t operator()(const std::vector<uint64_t>& words) const {
    size_t seed = words.size();
    for (uint64_t w : words) util::HashCombine(seed, w);
    return seed;
  }
};

/// Memoized minimax over inference states. A node is a frame: the state and
/// its live classes (those still informative under it, ascending). A child
/// copies its parent's state words, applies the label, and filters the
/// parent's live list through the new state — classes are classified from
/// the engine's cached knowledge rows, which meet every speculative θ_P to
/// θ_P ∧ Part(c). Frames are pooled by depth, so a warm search allocates
/// only for memo entries. The memo key is the state's words, canonical as
/// they stand; candidates are visited in the engine's worklist order, so
/// values and tie-breaks do not depend on the search's bookkeeping.
class MinimaxSolver {
 public:
  MinimaxSolver(const InferenceEngine& engine, size_t node_budget)
      : engine_(engine), node_budget_(node_budget) {
    // Every label retires at least its own class, so depth ≤ #live; the
    // reservation keeps frame references stable across the recursion.
    frames_.reserve(engine.InformativeClasses().size() + 1);
    frames_.push_back(Frame{engine.state(), engine.InformativeClasses()});
  }

  /// Worst-case questions needed from the root state.
  size_t Solve() { return Solve(0); }

  /// max over the two answers of Solve(root state + answer).
  size_t WorstAnswer(size_t class_id) { return WorstAnswer(0, class_id); }

 private:
  struct Frame {
    InferenceState state;
    std::vector<size_t> live;
  };

  size_t Solve(size_t depth) {
    const Frame& frame = frames_[depth];
    auto it = memo_.find(frame.state.words());
    if (it != memo_.end()) return it->second;
    JIM_CHECK_LT(nodes_++, node_budget_)
        << "optimal strategy exceeded its node budget";
    size_t best = frame.live.empty() ? 0 : SIZE_MAX;
    for (size_t c : frame.live) {
      best = std::min(best, 1 + WorstAnswer(depth, c));
      if (best == 1) break;  // cannot do better than one question
    }
    memo_.emplace(frame.state.words(), best);
    return best;
  }

  size_t WorstAnswer(size_t depth, size_t class_id) {
    if (frames_.size() == depth + 1) frames_.push_back(frames_[depth]);
    const Frame& parent = frames_[depth];
    Frame& child = frames_[depth + 1];
    size_t worst = 0;
    for (Label label : {Label::kPositive, Label::kNegative}) {
      child.state = parent.state;
      JIM_CHECK_OK(child.state.ApplyLabel(engine_.KnowledgeRow(class_id),
                                          label));
      child.live.clear();
      for (size_t c : parent.live) {
        if (c != class_id && child.state.Classify(engine_.KnowledgeRow(c)) ==
                                 TupleClassification::kInformative) {
          child.live.push_back(c);
        }
      }
      worst = std::max(worst, Solve(depth + 1));
    }
    return worst;
  }

  const InferenceEngine& engine_;
  size_t node_budget_;
  size_t nodes_ = 0;
  std::vector<Frame> frames_;  ///< frames_[d] is the node at depth d
  std::unordered_map<std::vector<uint64_t>, size_t, WordsHash> memo_;
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
