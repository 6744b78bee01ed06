#ifndef JIM_CORE_ENGINE_H_
#define JIM_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/example.h"
#include "core/inference_state.h"
#include "core/join_predicate.h"
#include "core/tuple_store.h"
#include "exec/thread_pool.h"
#include "lattice/partition.h"
#include "relational/relation.h"
#include "util/bitset.h"
#include "util/status.h"

namespace jim::core {

/// An equivalence class of tuples: all tuples of the instance sharing the
/// same value partition Part(t). Tuples in one class are interchangeable for
/// inference — labeling any member forces the labels of all the others — so
/// the engine reasons over classes and the paper's "label propagation"
/// (graying out uninformative tuples) falls out for free.
struct TupleClass {
  lat::Partition partition;
  std::vector<size_t> tuple_indices;

  size_t size() const { return tuple_indices.size(); }
};

/// Lifecycle of a class during a session.
enum class ClassStatus {
  /// Labeling a member tuple would narrow the hypothesis space.
  kInformative,
  /// All consistent predicates select these tuples (uninformative, grayed).
  kForcedPositive,
  /// No consistent predicate selects these tuples (uninformative, grayed).
  kForcedNegative,
  /// The user explicitly labeled a member positive / negative.
  kLabeledPositive,
  kLabeledNegative,
};

std::string_view ClassStatusToString(ClassStatus status);

/// Per-tuple view of the class lifecycle. A tuple shows as *labeled* only if
/// the user labeled that very tuple; class-mates of a labeled tuple show as
/// *forced* (they are exactly the tuples the demo grays out).
enum class TupleStatus {
  kInformative,
  kForcedPositive,
  kForcedNegative,
  kLabeledPositive,
  kLabeledNegative,
};

std::string_view TupleStatusToString(TupleStatus status);

/// True for the two statuses that still carry a question mark.
inline bool IsInformative(ClassStatus status) {
  return status == ClassStatus::kInformative;
}
/// True for statuses whose tuples belong to the final join result.
inline bool IsPositive(ClassStatus status) {
  return status == ClassStatus::kForcedPositive ||
         status == ClassStatus::kLabeledPositive;
}

/// The Join Inference Machine: drives the interactive scenario of the paper
/// (Figure 2). Holds the instance, the inference state, and per-class
/// bookkeeping; each accepted label triggers propagation that reclassifies
/// (and effectively grays out) tuples that became uninformative.
///
/// The engine consumes the instance through the TupleStore seam: class
/// construction (Part(t) for every tuple) runs on integer codes — a
/// sort-free per-tuple grouping, ParallelFor'd over the exec pool with
/// deterministic first-occurrence class ids — and never touches a Value.
///
/// The engine is strategy-agnostic: strategies (src/core/strategies.h) pick
/// which informative class to ask about next; interaction modes 1-4 of the
/// demonstration are built on top in src/core/session.h.
class InferenceEngine {
 public:
  /// Builds the engine over `store`. `pool` runs the per-tuple Part(t)
  /// extraction (nullptr = serial); class ids are assigned in
  /// first-occurrence tuple order by a serial merge, so the result is
  /// bitwise-identical at any thread count.
  InferenceEngine(std::shared_ptr<const TupleStore> store,
                  exec::ThreadPool* pool);

  /// Same, on the process-wide shared pool (exec::SharedPool).
  explicit InferenceEngine(std::shared_ptr<const TupleStore> store);

  /// Convenience: wraps `relation` into a RelationTupleStore (encoding every
  /// cell through one shared dictionary) and builds over that.
  explicit InferenceEngine(std::shared_ptr<const rel::Relation> relation);

  /// Copies are cheap clones: the class table and tuple → class map are
  /// shared outright (immutable), and both the per-class knowledge cache and
  /// the per-class session arrays (statuses, worklist, watches) are
  /// copy-on-write — a clone defers those costs until its first label. This
  /// is what lets BatchSessionRunner fan independent sessions out over
  /// clones of one built engine. Clones may be labeled from different
  /// threads concurrently (a mutating clone detaches before it writes); only
  /// cloning an engine *while another thread mutates that same engine* is a
  /// race, so clone before fanning out.
  InferenceEngine(const InferenceEngine&) = default;
  InferenceEngine& operator=(const InferenceEngine&) = default;

  /// The instance, through the storage seam.
  const TupleStore& store() const { return *store_; }
  const std::shared_ptr<const TupleStore>& store_ptr() const {
    return store_;
  }
  const InferenceState& state() const { return state_; }

  size_t num_tuples() const { return store_->num_tuples(); }
  size_t num_classes() const { return classes_->size(); }
  const TupleClass& tuple_class(size_t class_id) const {
    return (*classes_)[class_id];
  }
  ClassStatus class_status(size_t class_id) const {
    return session_->class_status[class_id];
  }
  size_t class_of_tuple(size_t tuple_index) const {
    return (*class_of_tuple_)[tuple_index];
  }

  /// Status of an individual tuple (see TupleStatus). This is what the demo
  /// UI renders: explicit labels as +/−, forced tuples grayed out (a labeled
  /// class's members are looked up in history()).
  TupleStatus tuple_status(size_t tuple_index) const;

  /// Ids of classes that are still worth asking about, ascending. Returns a
  /// reference to the engine's live worklist: any Submit*Label call compacts
  /// it (and, on a clone, detaches the copy-on-write session arrays),
  /// invalidating the reference — copy first if you need the list across a
  /// labeling.
  const std::vector<size_t>& InformativeClasses() const {
    return session_->informative;
  }

  /// Cached knowledge partition K_c = θ_P ∧ Part(c) of an *informative*
  /// class (the cache goes stale — harmlessly — once a class leaves the
  /// pool). Maintained incrementally: a positive label shrinks θ_P, and
  /// since the new θ_P refines the old one, K_c' = K_c ∧ θ_P' over the
  /// already-shrunk cache; negative labels leave θ_P (and the cache) alone.
  const lat::Partition& ClassKnowledge(size_t class_id) const {
    return (*knowledge_)[class_id];
  }

  /// Total member count over informative classes.
  size_t NumInformativeTuples() const;

  /// True when every class is labeled or forced: all consistent predicates
  /// are instance-equivalent and Result() is the canonical answer.
  bool IsDone() const;

  /// Tuples already *certain* to belong to the final join result (labeled
  /// positive or forced positive), regardless of how inference ends — the
  /// "certain answers" the demo can show at any point. Monotone: the set
  /// only grows as labels arrive.
  util::DynamicBitset CertainResultTuples() const;

  /// Tuples certain to be excluded from the final join result.
  util::DynamicBitset CertainNonResultTuples() const;

  /// The inferred predicate so far: θ_P, the maximal consistent predicate.
  /// After IsDone() this identifies the goal up to instance-equivalence.
  JoinPredicate Result() const;

  /// Labels the tuple (mode-1 entry point: any tuple, informative or not).
  /// Returns kFailedPrecondition and leaves the engine unchanged when the
  /// label contradicts earlier labels. A consistent label on an
  /// uninformative tuple is accepted, counted as a wasted interaction, and
  /// does not change the state.
  util::Status SubmitTupleLabel(size_t tuple_index, Label label);

  /// Labels (the representative tuple of) a class.
  util::Status SubmitClassLabel(size_t class_id, Label label);

  /// What labeling a class would do: number of classes/tuples leaving the
  /// informative pool (the labeled class included).
  struct LabelImpact {
    size_t pruned_classes = 0;
    size_t pruned_tuples = 0;
  };

  /// Both answers' impacts for an informative class, from the engine's
  /// cached knowledge partitions — no InferenceState copy, no antichain
  /// restriction:
  ///   negative answer: the new forbidden zone is K_c, so a still-informative
  ///     class d is pruned iff K_d ≤ K_c;
  ///   positive answer: the new θ_P is K_c, so d is forced positive iff
  ///     K_c ≤ K_d, and otherwise forced negative iff K_c ∧ K_d falls in an
  ///     existing forbidden zone (restricting the antichain cannot change
  ///     that test for partitions below the new θ_P).
  /// Exactly what submitting each label would prune. Prepares a
  /// LookaheadBoundsCache and runs SimulateLabelBothBounded with no cutoff,
  /// so a caller scoring many classes should prepare the cache once and
  /// call that instead.
  struct LabelImpactPair {
    LabelImpact positive;
    LabelImpact negative;
  };
  LabelImpactPair SimulateLabelBoth(size_t class_id) const;

  /// Upper-bound oracle for cutoff-pruned lookahead: given caps on the two
  /// pruning counts (n⁺ ≤ pos_cap, n⁻ ≤ neg_cap), returns a value ≥ the
  /// aggregate score of any feasible (n⁺, n⁻). Implemented by the strategy
  /// over its (monotone) objective; the engine only ever *compares* bounds,
  /// so a looser implementation costs skips, never correctness.
  class AggregateBoundFn {
   public:
    virtual ~AggregateBoundFn() = default;
    virtual double UpperBound(size_t pos_cap, size_t neg_cap) const = 0;
  };

  /// Per-decision cache of one lookahead decision, built once by
  /// PrepareLookaheadBounds and shared (read-only) by every concurrent
  /// SimulateLabelBothBounded call of that decision. It holds everything the
  /// impact scan reads, plus the cutoff bounds:
  ///   - pair masks. A partition over n attributes is exactly its set of
  ///     co-block pairs (i, j), i < j, stored as a bitset of n(n−1)/2 bits
  ///     in `mask_words` words (pairs in row-major order). Then p ≤ q ⇔
  ///     pairs(p) ⊆ pairs(q), and p ∧ q has pairs(p) ∩ pairs(q) (the
  ///     intersection of two equivalence relations is one), so every scan
  ///     test is a few word operations. `knowledge_masks` holds K_c of the
  ///     worklist class at position i in row i; `antichain_masks` holds one
  ///     row per forbidden-zone member;
  ///   - `class_tuples`: member count of the worklist class at position i;
  ///   - rank-histogram prefix/suffix tuple sums over the worklist, keyed by
  ///     rank(K_c) — K_d ≤ K_c forces rank(K_d) ≤ rank(K_c), so the prefix
  ///     sum at rank(K_c) caps the negative-answer pruning, and (antichain
  ///     empty) the suffix sum caps the positive-answer pruning;
  ///   - tuple suffix sums by worklist position, for the in-scan abort:
  ///     after position i, at most suffix[i] more tuples can ever be added
  ///     to either count.
  struct LookaheadBoundsCache {
    size_t mask_words = 0;                  ///< words per pair mask
    std::vector<uint64_t> knowledge_masks;  ///< by worklist position
    std::vector<uint64_t> antichain_masks;  ///< by antichain member
    size_t antichain_size = 0;              ///< antichain members
    std::vector<size_t> class_tuples;       ///< by worklist position
    std::vector<size_t> tuples_rank_le;  ///< by rank r: Σ tuples, rank(K)≤r
    std::vector<size_t> tuples_rank_ge;  ///< by rank r: Σ tuples, rank(K)≥r
    std::vector<size_t> suffix_tuples;   ///< by worklist position, size+1
    size_t total_tuples = 0;             ///< Σ tuples over the worklist
  };
  /// Fills `cache` for the current worklist. O(worklist · n² + antichain ·
  /// n²). Invalidated by any accepted label (like InformativeClasses()).
  void PrepareLookaheadBounds(LookaheadBoundsCache& cache) const;

  /// Cheap per-candidate caps from the cache (see LookaheadBoundsCache).
  size_t LookaheadNegCap(const LookaheadBoundsCache& cache,
                         size_t class_id) const {
    return cache.tuples_rank_le[(*knowledge_)[class_id].Rank()];
  }
  size_t LookaheadPosCap(const LookaheadBoundsCache& cache,
                         size_t class_id) const {
    return cache.antichain_size == 0
               ? cache.tuples_rank_ge[(*knowledge_)[class_id].Rank()]
               : cache.total_tuples;
  }

  /// The one impact-pair scan (see SimulateLabelBoth), over the pair masks
  /// of `cache` (prepared for the current worklist), cut off against
  /// `threshold`: evaluates the candidate only if its upper bound can still
  /// beat it. Returns true with *impact filled when the candidate was fully
  /// evaluated; returns false with *skip_bound set to the bound it was
  /// skipped under — either the O(1) precheck bound or an in-scan abort
  /// bound (current counts + remaining-tuples cap) — when the candidate
  /// provably cannot reach `threshold`. The skip test is strict
  /// (bound < threshold), so a candidate tying the best score is always
  /// evaluated and argmax tie-breaking is unaffected. A threshold of −∞ is
  /// the plain simulation: the bounds, `objective` and `skip_bound` are not
  /// read (the latter two may be null) and the call always returns true.
  ///
  /// Reads only `cache`, the candidate's worklist position and the engine's
  /// read-only class table, and writes nothing but its outputs, so any
  /// number of threads may score candidates of one engine concurrently —
  /// the entry point of the parallel lookahead. O(worklist · (1 +
  /// antichain) · mask_words) word operations.
  bool SimulateLabelBothBounded(size_t class_id,
                                const LookaheadBoundsCache& cache,
                                const AggregateBoundFn* objective,
                                double threshold, LabelImpactPair* impact,
                                double* skip_bound) const;

  /// Progress counters for the demo UI and session traces.
  struct Stats {
    size_t num_tuples = 0;
    size_t num_classes = 0;
    size_t interactions = 0;       ///< accepted labels (user effort)
    size_t wasted_interactions = 0;///< accepted labels that taught nothing
    size_t informative_tuples = 0;
    size_t informative_classes = 0;
    /// The tuple buckets count exactly what tuple_status() shows.
    size_t forced_positive_tuples = 0;
    size_t forced_negative_tuples = 0;
    size_t explicitly_labeled_tuples = 0;
  };
  Stats GetStats() const;

  /// Explicit labels in submission order.
  const LabeledExamples& history() const { return history_; }

  /// Invariant audit (see util/check.h), re-deriving the engine's contracts
  /// from scratch and JIM_CHECK-failing on any disagreement:
  ///   - the inference state is internally consistent (θ_P / antichain);
  ///   - classes partition the tuple set and agree with class_of_tuple;
  ///   - the worklist is exactly the ascending list of kInformative classes;
  ///   - for every informative class, the cached knowledge K_c equals a
  ///     from-scratch θ_P ∧ Part(c) recompute, and the incremental status of
  ///     every class matches a fresh InferenceState::Classify;
  ///   - every history() entry sits in a class labeled the same way;
  ///   - the worklist position index matches the worklist, every informative
  ///     class is validly watched (a co-block pair of its K_c, or the bottom
  ///     list exactly when K_c is all singletons) and registered on the
  ///     matching watcher list, and the pair cover equals a from-scratch
  ///     recompute over the antichain;
  ///   - the copy-on-write holders are attached and correctly sized.
  /// O(classes · (n² + antichain)); tests call it directly, and every
  /// construction/labeling runs it under JIM_AUDIT (the parity suites and
  /// the ci.sh audit stage enable that mode).
  void CheckInvariants() const;

 private:
  /// Watch-slot sentinels (values of SessionArrays::watch_pair). Real slots
  /// encode an attribute pair (i, j), i < j, as i * n + j.
  static constexpr uint32_t kNoWatch = 0xFFFFFFFFu;
  /// Classes whose knowledge is all-singletons watch "bottom": a singleton
  /// partition refines every forbidden zone, so any negative label prunes
  /// them — they live on one shared list instead of a pair slot.
  static constexpr uint32_t kBottomWatch = 0xFFFFFFFEu;
  /// Worklist-position sentinel for classes not on the worklist.
  static constexpr uint32_t kNoPos = 0xFFFFFFFFu;

  /// The flat per-class session arrays (labeled tuples live in history_),
  /// grouped under one copy-on-write holder so a clone shares them until its
  /// first Submit (EngineCopy is then three shared_ptr bumps, not copies).
  struct SessionArrays {
    std::vector<ClassStatus> class_status;
    /// Ids of informative classes, ascending — the dense worklist the
    /// Propagate variants scan and compact.
    std::vector<size_t> informative;
    /// Position of each class in `informative` (kNoPos once it left the
    /// pool): O(1) locate for RemoveFromWorklist, maintained for free by the
    /// compaction loops.
    std::vector<uint32_t> worklist_pos;
    /// Watch structure for negative-label propagation: every informative
    /// class is registered on exactly one certificate that must break before
    /// the class can leave the pool on a negative label — a co-block pair of
    /// its (fresh) K_c, or the shared bottom list when K_c is all
    /// singletons. `watch_pair[c]` is that slot (or kNoWatch off-pool);
    /// `pair_watchers[slot]` / `bottom_watchers` hold the per-slot class
    /// lists, with lazy deletion (an entry is live only while watch_pair
    /// still points at the slot).
    std::vector<uint32_t> watch_pair;
    std::vector<std::vector<uint32_t>> pair_watchers;
    std::vector<uint32_t> bottom_watchers;
  };

  void BuildClasses(exec::ThreadPool* pool);
  /// Shared implementation of the two Submit entry points; `tuple_index` is
  /// the tuple recorded in the history (the one actually shown to the user).
  util::Status LabelImpl(size_t class_id, size_t tuple_index, Label label);

  /// Reclassification after a state change, over the dense worklist of
  /// still-informative classes only (uninformativeness is monotone, so
  /// settled classes are never revisited). Each variant compacts the
  /// worklist in place and returns the number of classes that left the
  /// pool. Callers must hold the session arrays uniquely (constructor, or
  /// LabelImpl after MutableSession).
  ///
  /// Full variant (construction): classifies each worklist class from its
  /// cached knowledge.
  size_t Propagate();
  /// After a positive label: θ_P shrank to the labeled class's knowledge, so
  /// each cache entry is refreshed in place (K_c ← K_c ∧ θ_P) and the class
  /// re-tested — forced positive iff K_c == θ_P (one fingerprint compare in
  /// the common case), else forced negative iff K_c is in a forbidden zone.
  size_t PropagateAfterPositive();
  /// After a negative label: θ_P and the cache are untouched; the only new
  /// way out of the pool is the fresh forbidden zone. Instead of rescanning
  /// the worklist, this drains exactly the watch lists of `forbidden`'s
  /// co-block pairs (plus the bottom list): a class whose watched pair is
  /// split in `forbidden` provably cannot refine it, so only the woken
  /// classes take the full K_c ≤ `forbidden` test; woken survivors
  /// re-register on a non-refinement witness pair.
  size_t PropagateAfterNegative(const lat::Partition& forbidden);
  /// Drops `class_id` from the worklist (on explicit labeling) via its
  /// position index — no scan.
  void RemoveFromWorklist(size_t class_id);

  /// Registers every informative class on its watch certificate (a co-block
  /// pair of K_c, or the bottom list). Construction-time only; labeling
  /// keeps watches current incrementally.
  void InitializeWatches();
  /// First co-block pair of `k` outside pair_cover_, encoded as a slot;
  /// kNoWatch when every co-block pair is covered (or `k` is singletons).
  /// Preferring uncovered pairs maximizes the positive-propagation
  /// exemptions AND (the cover contains every pair of the newest forbidden
  /// zone) guarantees a negative-drain re-watch never lands on a slot still
  /// being drained.
  uint32_t UncoveredPairSlot(const lat::Partition& k) const;
  /// Points `class_id`'s watch at `slot` (a pair slot or kBottomWatch) and
  /// appends it to the matching watcher list.
  void AttachWatch(SessionArrays& session, size_t class_id, uint32_t slot);
  /// Recomputes pair_cover_ from the current antichain. O(|A| · n²).
  void RebuildPairCover();

  /// Detaches knowledge_ from any sharers (copy-on-first-mutate) and returns
  /// the sole-owner vector. Everything that writes K_c goes through here.
  std::vector<lat::Partition>& MutableKnowledge();
  /// Same for the session arrays; only a label that changes a status does.
  SessionArrays& MutableSession();

  std::shared_ptr<const TupleStore> store_;
  InferenceState state_;
  /// The class table and the tuple → class map are immutable once
  /// BuildClasses returns, so every clone of an engine shares them outright.
  std::shared_ptr<const std::vector<TupleClass>> classes_;
  std::shared_ptr<const std::vector<size_t>> class_of_tuple_;
  /// Per-session flat arrays, copy-on-write across clones (see
  /// SessionArrays).
  std::shared_ptr<SessionArrays> session_;
  /// K_c per class; fresh for informative classes (see ClassKnowledge).
  /// Copy-on-write: clones share the vector until their first knowledge
  /// mutation (a positive label), which makes engine copies cheap enough to
  /// fan batches of sessions out over clones (exec::BatchSessionRunner).
  /// Negative-only histories never pay for a copy at all.
  std::shared_ptr<std::vector<lat::Partition>> knowledge_;
  /// Pair cover of the current antichain (see Antichain::FillPairCover),
  /// sized n·n: pair_cover_[i*n+j] == 1 iff (i, j) is co-block in some
  /// forbidden-zone member. Derived purely from state_, so it is a plain
  /// value member (copied with the engine, not COW) rebuilt after every
  /// accepted label.
  std::vector<uint8_t> pair_cover_;
  /// Scratch state for propagation's allocation-free kernels. Copying an
  /// engine copies only warmed capacity, never live data.
  lat::PartitionScratch scratch_;
  LabeledExamples history_;
  size_t wasted_interactions_ = 0;
};

}  // namespace jim::core

#endif  // JIM_CORE_ENGINE_H_
