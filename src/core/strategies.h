#ifndef JIM_CORE_STRATEGIES_H_
#define JIM_CORE_STRATEGIES_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "exec/thread_pool.h"
#include "util/rng.h"
#include "util/status.h"

namespace jim::core {

/// A strategy Υ: given the engine's current knowledge, decides which
/// informative tuple (class) the user is asked to label next. The paper
/// distinguishes *local* strategies (cheap, fixed lattice orders), *lookahead*
/// strategies (score candidates by the quantity of information their label
/// would bring, via a generalized entropy), the *random* baseline, and the
/// exponential-time *optimal* strategy.
class Strategy {
 public:
  virtual ~Strategy() = default;

  virtual std::string_view name() const = 0;

  /// Scores for each candidate class (parallel to `candidates`); higher is
  /// better. Scores are comparable within one call only.
  virtual std::vector<double> Score(const InferenceEngine& engine,
                                    const std::vector<size_t>& candidates) = 0;

  /// The class to ask about next: by default the argmax of Score over all
  /// informative classes, ties broken toward the smallest class id (which
  /// makes local strategies fully deterministic). Requires !engine.IsDone().
  virtual size_t PickClass(const InferenceEngine& engine);

  /// The `k` best classes, best first (used by interaction mode 3,
  /// "proposing top-k informative tuples").
  std::vector<size_t> TopK(const InferenceEngine& engine, size_t k);
};

/// Uniform choice among informative *tuples* (so classes are weighted by
/// their member counts, matching a user clicking a random non-grayed row).
class RandomStrategy : public Strategy {
 public:
  explicit RandomStrategy(uint64_t seed);
  std::string_view name() const override { return "random"; }
  std::vector<double> Score(const InferenceEngine& engine,
                            const std::vector<size_t>& candidates) override;
  size_t PickClass(const InferenceEngine& engine) override;

 private:
  util::Rng rng_;
};

/// Local strategy: fixed order by the lattice rank of the knowledge
/// K = θ_P ∧ Part(t). Bottom-up asks about the *least* constrained candidate
/// first (rank ascending); top-down the most constrained (rank descending).
/// O(1) per candidate — the cheap end of the paper's spectrum.
class LocalStrategy : public Strategy {
 public:
  enum class Direction { kBottomUp, kTopDown };
  explicit LocalStrategy(Direction direction);
  std::string_view name() const override;
  std::vector<double> Score(const InferenceEngine& engine,
                            const std::vector<size_t>& candidates) override;

 private:
  Direction direction_;
};

/// A lookahead scan with fewer sampled candidates than this scores serially
/// even when its strategy has a pool: below it, waking the pool's workers
/// costs more than the scan they would split. Each candidate's scan is
/// O(informative classes) word operations, so small worklists (up to ~100
/// classes, tens of µs per pick) stay on the caller's thread and wide ones
/// fan out. Calibrated on the pair-mask scan with per-pick timings of the
/// LookaheadPickClassParallel instances (2- and 4-thread break-even at
/// ~85–115 informative classes on 4 vCPUs); mirrors
/// rel::kParallelIngestMinRows.
inline constexpr size_t kParallelLookaheadMinCandidates = 96;

/// Lookahead strategy: simulates both answers for each candidate and scores
/// by how much of the instance gets pruned. `Objective` selects the
/// aggregation of the two pruning counts (n⁺, n⁻):
///   kMinMax    — min(n⁺, n⁻): maximize guaranteed progress;
///   kExpected  — (n⁺ + n⁻) / 2: maximize average progress;
///   kEntropy   — (n⁺+n⁻) · H_α(n⁺/(n⁺+n⁻)): the generalized-entropy
///                objective the paper alludes to (Tsallis family; α = 1 is
///                Shannon entropy).
/// O(#classes) simulations per candidate; `max_candidates` bounds the number
/// of candidates scored per step (a deterministic sample keeps huge
/// instances interactive), 0 = unlimited.
///
/// Scoring is embarrassingly parallel — every candidate's impact scan only
/// reads the decision's InferenceEngine::LookaheadBoundsCache (pair masks
/// and bounds, prepared once per Score or PickClass call) — and it runs on
/// a thread pool (exec::SharedPool() by default) once at least
/// kParallelLookaheadMinCandidates candidates are sampled. Score and
/// PickClass share one candidate loop (ScanCandidates); it is
/// bitwise-deterministic at any thread count: each candidate's score lands
/// in its slot of a pre-sized vector, and the serial argmax (ties toward the
/// smallest index) is unchanged.
class LookaheadStrategy : public Strategy {
 public:
  enum class Objective { kMinMax, kExpected, kEntropy };

  LookaheadStrategy(Objective objective, double alpha = 1.0,
                    size_t max_candidates = 256);
  std::string_view name() const override;
  std::vector<double> Score(const InferenceEngine& engine,
                            const std::vector<size_t>& candidates) override;

  /// Cutoff-pruned argmax (see DESIGN below): candidates whose aggregate
  /// upper bound provably cannot beat the best score found so far are
  /// skipped without (or part-way through) their impact scan.
  /// The skip test is strict (bound < best), every Aggregate objective here
  /// is monotone in each pruning count, and computed scores are bitwise
  /// those of Score — so the returned class is always identical to
  /// Strategy::PickClass over an exhaustive Score, at any thread count
  /// (serially the best is a monotone running maximum; in parallel it is a
  /// relaxed atomic maximum, and a stale read only costs a missed skip).
  /// Falls back to the exhaustive path when cutoff is disabled or the
  /// objective is non-monotone (Tsallis α ≤ 0).
  size_t PickClass(const InferenceEngine& engine) override;

  /// Scores candidates on `pool` instead of the process-wide default;
  /// nullptr forces the serial reference path at every worklist size. The
  /// pool is not owned and must outlive the strategy's last Score call.
  void set_thread_pool(exec::ThreadPool* pool) {
    pool_ = pool;
    use_shared_pool_ = false;
  }

  /// Cutoff pruning is on by default; benches and parity tests switch it off
  /// to get the exhaustive reference path.
  void set_cutoff_enabled(bool enabled) { cutoff_enabled_ = enabled; }
  bool cutoff_enabled() const { return cutoff_enabled_; }

  /// The aggregate objective itself, exposed so tests can recompute a
  /// skipped candidate's true score and check it against the bound it was
  /// skipped under (bound soundness).
  double ObjectiveValue(size_t n_plus, size_t n_minus) const {
    return Aggregate(n_plus, n_minus);
  }
  Objective objective() const { return objective_; }
  double alpha() const { return alpha_; }

  /// Instrumentation from the most recent PickClass call (empty after Score
  /// or when the cutoff was bypassed): which sampled candidates were skipped
  /// and under what bound, in candidate order, plus how many were fully
  /// evaluated. Skip *counts* may vary with thread count (the parallel best
  /// evolves nondeterministically); the returned pick never does.
  struct CutoffSkip {
    size_t class_id = 0;
    double bound = 0;
  };
  const std::vector<CutoffSkip>& last_skips() const { return last_skips_; }
  size_t last_evaluated() const { return last_evaluated_; }

 private:
  double Aggregate(size_t n_plus, size_t n_minus) const;
  /// The one candidate loop behind Score and PickClass: prepares the
  /// decision's LookaheadBoundsCache, then scores the evenly spaced sample
  /// of at most max_candidates_ candidates into their slots of `scores`
  /// (every other slot stays −∞), serially or on the pool. With
  /// `skip_bounds`, a candidate whose upper bound cannot beat the best score
  /// so far is skipped and its slot of `skip_bounds` gets that bound (NaN
  /// elsewhere); without, every sampled candidate is fully evaluated.
  void ScanCandidates(const InferenceEngine& engine,
                      const std::vector<size_t>& candidates,
                      std::vector<double>& scores,
                      std::vector<double>* skip_bounds);
  /// True when Aggregate is monotone nondecreasing in each count, which is
  /// what makes Aggregate(caps) a sound upper bound: min and mean trivially;
  /// total · H_α at fixed total is maximized... (∂/∂n⁺ of the Shannon form is
  /// ln(total/n⁺) ≥ 0, Tsallis α > 0 likewise). Tsallis α ≤ 0 is not, so the
  /// cutoff turns itself off there.
  bool CutoffUsable() const;

  Objective objective_;
  double alpha_;
  size_t max_candidates_;
  std::string name_;
  exec::ThreadPool* pool_ = nullptr;  ///< not owned (see set_thread_pool)
  bool use_shared_pool_ = true;
  bool cutoff_enabled_ = true;
  std::vector<CutoffSkip> last_skips_;
  size_t last_evaluated_ = 0;
};

/// Exact minimax strategy: explores the full game tree of (question, answer)
/// pairs and asks the question minimizing the worst-case number of remaining
/// interactions. Exponential time and memory (memoized on canonical states);
/// the paper: "it requires exponential time, which unfortunately renders it
/// unusable in practice". Guarded by a node budget: exceeding it aborts via
/// JIM_CHECK, so use only on tiny instances (bench S4).
class OptimalStrategy : public Strategy {
 public:
  explicit OptimalStrategy(size_t node_budget = 2'000'000);
  std::string_view name() const override { return "optimal"; }
  std::vector<double> Score(const InferenceEngine& engine,
                            const std::vector<size_t>& candidates) override;

 private:
  size_t node_budget_;
};

/// Worst-case number of questions an optimal questioner needs from the
/// engine's current state (the minimax value of the inference game).
/// `node_budget` bounds the memoized search.
size_t OptimalWorstCaseQuestions(const InferenceEngine& engine,
                                 size_t node_budget = 2'000'000);

/// Factory. Known names: "random", "local-bottom-up", "local-top-down",
/// "lookahead-minmax", "lookahead-expected", "lookahead-entropy", "optimal".
/// `seed` feeds randomized strategies; `alpha` the entropy family.
util::StatusOr<std::unique_ptr<Strategy>> MakeStrategy(std::string_view name,
                                                       uint64_t seed = 1,
                                                       double alpha = 1.0);

/// All strategy names accepted by MakeStrategy, in presentation order.
std::vector<std::string> KnownStrategyNames();

}  // namespace jim::core

#endif  // JIM_CORE_STRATEGIES_H_
