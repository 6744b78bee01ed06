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
/// costs more than the scan they would split. Re-measured for the transposed
/// scan (4 vCPUs, 2-thread pool, lookahead-wide sessions): a serial pick
/// costs ~0.1–0.2 µs per candidate on narrow worklists and ~0.6 µs at 256,
/// ~20 µs at 96. Served, the next-question p50 read alike with the threshold
/// at 48, 96 and 126 (104/109/112 µs medians, inside their spread) and
/// 123 µs with no fan-out, so 96 stays, in that flat range. (An in-process
/// replay whose caller never sleeps breaks even only near ~220 candidates:
/// the woken worker rarely claims a chunk before the caller has run them
/// all.) Mirrors rel::kParallelIngestMinRows.
inline constexpr size_t kParallelLookaheadMinCandidates = 96;

/// Lookahead strategy: simulates both answers for each candidate and scores
/// by how much of the instance gets pruned. `Objective` selects the
/// aggregation of the two pruning counts (n⁺, n⁻):
///   kMinMax    — min(n⁺, n⁻): maximize guaranteed progress;
///   kExpected  — (n⁺ + n⁻) / 2: maximize average progress;
///   kEntropy   — (n⁺+n⁻) · H_α(n⁺/(n⁺+n⁻)): the generalized-entropy
///                objective the paper alludes to (Tsallis family; α = 1 is
///                Shannon entropy).
/// `max_candidates` bounds the number of candidates scored per step (a
/// deterministic sample keeps huge instances interactive), 0 = unlimited.
/// The pick is Strategy::PickClass, the argmax of Score.
///
/// Each Score call transposes the worklist once into the strategy's
/// InferenceEngine::LookaheadColumns (a buffer reused across calls), then
/// scores every sampled candidate in full with column word operations.
/// Scoring is embarrassingly parallel — a candidate's scan only reads the
/// columns — and it runs on a thread pool (exec::SharedPool() by default)
/// once at least kParallelLookaheadMinCandidates candidates are sampled. It
/// is bitwise-deterministic at any thread count: each candidate's score
/// lands in its slot of a pre-sized vector, and the serial argmax (ties
/// toward the smallest index) is unchanged.
class LookaheadStrategy : public Strategy {
 public:
  enum class Objective { kMinMax, kExpected, kEntropy };

  LookaheadStrategy(Objective objective, double alpha = 1.0,
                    size_t max_candidates = 256);
  std::string_view name() const override;
  std::vector<double> Score(const InferenceEngine& engine,
                            const std::vector<size_t>& candidates) override;

  /// Scores candidates on `pool` instead of the process-wide default;
  /// nullptr forces the serial reference path at every worklist size. The
  /// pool is not owned and must outlive the strategy's last Score call.
  void set_thread_pool(exec::ThreadPool* pool) {
    pool_ = pool;
    use_shared_pool_ = false;
  }

  /// The aggregate objective itself, exposed so tests can score naive
  /// impacts the way Score does.
  double ObjectiveValue(size_t n_plus, size_t n_minus) const {
    return Aggregate(n_plus, n_minus);
  }

  /// Candidates the most recent Score (or PickClass) call evaluated: the
  /// sampled count, min(|candidates|, max_candidates).
  size_t last_evaluated() const { return last_evaluated_; }

 private:
  double Aggregate(size_t n_plus, size_t n_minus) const;

  Objective objective_;
  double alpha_;
  size_t max_candidates_;
  std::string name_;
  exec::ThreadPool* pool_ = nullptr;  ///< not owned (see set_thread_pool)
  bool use_shared_pool_ = true;
  InferenceEngine::LookaheadColumns columns_;  ///< reused by every Score
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
