#ifndef JIM_CORE_ENGINE_H_
#define JIM_CORE_ENGINE_H_

#include <algorithm>
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

/// The member tuple ids of one class: a read-only view over a contiguous
/// run of the class table's member permutation (see InferenceEngine's
/// ClassTable). Valid while the engine — or any copy sharing its table —
/// lives.
class ClassMembers {
 public:
  using const_iterator = const uint32_t*;

  ClassMembers(const uint32_t* begin, const uint32_t* end)
      : begin_(begin), end_(end) {}

  const uint32_t* begin() const { return begin_; }
  const uint32_t* end() const { return end_; }
  const uint32_t* data() const { return begin_; }
  size_t size() const { return static_cast<size_t>(end_ - begin_); }
  uint32_t operator[](size_t i) const { return begin_[i]; }
  uint32_t front() const { return *begin_; }

  friend bool operator==(const ClassMembers& a, const ClassMembers& b) {
    return std::equal(a.begin_, a.end_, b.begin_, b.end_);
  }

 private:
  const uint32_t* begin_;
  const uint32_t* end_;
};

/// An equivalence class of tuples: all tuples of the instance sharing the
/// same value partition Part(t), i.e. the same pair mask. Tuples in one class
/// are interchangeable for inference — labeling any member forces the labels
/// of all the others — so the engine reasons over classes and the paper's
/// "label propagation" (graying out uninformative tuples) falls out for
/// free. A TupleClass is a view into the engine's class table: its members
/// are a run of the table's member permutation, and Part(c) is a mask row
/// of the table, decoded by InferenceEngine::ClassPartition.
struct TupleClass {
  ClassMembers tuple_indices;  ///< members, ascending

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
/// construction computes each tuple's Part(t) pair mask straight from its
/// integer codes (two attributes co-block iff their codes are equal and not
/// NULL) and groups tuples by mask, chunk by chunk over the exec pool, with
/// deterministic first-occurrence class ids — it never touches a Value.
/// Tuple and class ids are uint32_t in the class table (and in session
/// checkpoints), so a store must hold fewer than 2^32 tuples.
///
/// The engine is strategy-agnostic: strategies (src/core/strategies.h) pick
/// which informative class to ask about next; interaction modes 1-4 of the
/// demonstration are built on top in src/core/session.h.
class InferenceEngine {
 public:
  /// Builds the engine over `store` (JIM_CHECK-fails on a null store or one
  /// of 2^32 tuples or more, before anything is allocated). `pool` runs the
  /// class construction (nullptr = serial): each static chunk of tuples
  /// groups its own Part(t) masks, and a short serial merge of the chunks'
  /// distinct masks assigns class ids in first-occurrence tuple order, so
  /// the result is bitwise-identical at any thread count.
  InferenceEngine(std::shared_ptr<const TupleStore> store,
                  exec::ThreadPool* pool);

  /// Same, on the process-wide shared pool (exec::SharedPool).
  explicit InferenceEngine(std::shared_ptr<const TupleStore> store);

  /// Convenience: wraps `relation` into a RelationTupleStore (encoding every
  /// cell through one shared dictionary) and builds over that.
  explicit InferenceEngine(std::shared_ptr<const rel::Relation> relation);

  /// An engine is a plain value over one shared, immutable class table
  /// (members, tuple → class map, Part(c) rows) and one shared store: a
  /// copy shares those two outright and copies the per-class session state
  /// — statuses, worklist, worklist positions, K_c rows and ranks —
  /// O(classes), never O(tuples). This is what lets BatchSessionRunner fan
  /// independent sessions out over copies of one built engine. Copies share
  /// nothing they write, so they may be labeled from different threads
  /// concurrently; copying an engine *while another thread mutates that same
  /// engine* is a race, so copy before fanning out.
  InferenceEngine(const InferenceEngine&) = default;
  InferenceEngine& operator=(const InferenceEngine&) = default;

  /// The instance, through the storage seam.
  const TupleStore& store() const { return *store_; }
  const std::shared_ptr<const TupleStore>& store_ptr() const {
    return store_;
  }
  const InferenceState& state() const { return state_; }

  size_t num_tuples() const { return store_->num_tuples(); }
  size_t num_classes() const { return table_->offsets.size() - 1; }
  /// The class's members, a view into the shared class table.
  TupleClass tuple_class(size_t class_id) const {
    const uint32_t* members = table_->members.data();
    return TupleClass{ClassMembers(members + table_->offsets[class_id],
                                   members + table_->offsets[class_id + 1])};
  }
  /// Part(c), decoded from the class table's mask row.
  lat::Partition ClassPartition(size_t class_id) const;
  ClassStatus class_status(size_t class_id) const {
    return class_status_[class_id];
  }
  size_t class_of_tuple(size_t tuple_index) const {
    return table_->class_of_tuple[tuple_index];
  }

  /// Status of an individual tuple (see TupleStatus). This is what the demo
  /// UI renders: explicit labels as +/−, forced tuples grayed out (a labeled
  /// class's members are looked up in history()).
  TupleStatus tuple_status(size_t tuple_index) const;

  /// Ids of classes that are still worth asking about, ascending. Returns a
  /// reference to the engine's live worklist, which any accepted
  /// Submit*Label call compacts in place — copy first if you need the list
  /// as it was before a labeling.
  const std::vector<size_t>& InformativeClasses() const {
    return informative_;
  }

  /// Knowledge K_c = θ_P ∧ Part(c) of an *informative* class, decoded from
  /// the engine's cache (which goes stale — harmlessly — once a class leaves
  /// the pool). The cache stores each K_c as its pair mask
  /// (lattice/pair_mask.h) and is maintained incrementally: a positive label
  /// shrinks θ_P, and since the new θ_P refines the old one, K_c' = K_c ∧ θ_P'
  /// is one word-wise AND over the cached row; negative labels leave θ_P
  /// (and the cache) alone.
  lat::Partition ClassKnowledge(size_t class_id) const;

  /// rank(K_c) = n − #blocks of an informative class's knowledge, stored
  /// beside the cached row wherever the row is written.
  size_t ClassKnowledgeRank(size_t class_id) const {
    return knowledge_rank_[class_id];
  }

  /// The class's cached knowledge row (mask_words words). It is K_c for an
  /// informative class, and θ' ∧ Part(c) for some earlier θ' ⊇ θ_P for any
  /// other, so InferenceState::Classify and ApplyLabel take it in place of
  /// Part(c) for every class.
  const uint64_t* KnowledgeRow(size_t class_id) const {
    return knowledge_rows_.data() + class_id * mask_words_;
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

  /// What labeling a class does (or would do): number of classes/tuples
  /// leaving the informative pool, the labeled class included.
  struct LabelImpact {
    size_t pruned_classes = 0;
    size_t pruned_tuples = 0;
  };

  /// Labels the tuple (mode-1 entry point: any tuple, informative or not).
  /// Returns kFailedPrecondition and leaves the engine unchanged when the
  /// label contradicts earlier labels. A consistent label on an
  /// uninformative tuple is accepted, counted as a wasted interaction, and
  /// does not change the state. A non-null `impact` receives what the label
  /// pruned, counted during propagation: zero for a wasted or refused label,
  /// so an accepted label was wasted iff impact->pruned_classes == 0.
  util::Status SubmitTupleLabel(size_t tuple_index, Label label,
                                LabelImpact* impact = nullptr);

  /// Labels (the representative tuple of) a class; `impact` as above.
  util::Status SubmitClassLabel(size_t class_id, Label label,
                                LabelImpact* impact = nullptr);

  /// Both answers' impacts for an informative class, from the engine's
  /// cached knowledge masks — no InferenceState copy, no antichain
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
  ///     co-block pairs, `mask_words` words per row (lattice/pair_mask.h),
  ///     so every scan test is a few word operations. This is also how the
  ///     engine stores K_c and the state stores its forbidden zones;
  ///     `knowledge_masks` gathers the cached row of the worklist class at
  ///     position i into row i, and `antichain_masks` points at the state's
  ///     own member rows (no label can land while a decision is scored);
  ///   - `class_tuples`: member count of the worklist class at position i;
  ///   - rank-histogram prefix/suffix tuple sums over the worklist, keyed by
  ///     rank(K_c) — K_d ≤ K_c forces rank(K_d) ≤ rank(K_c), so the prefix
  ///     sum at rank(K_c) caps the negative-answer pruning, and (antichain
  ///     empty) the suffix sum caps the positive-answer pruning;
  ///   - tuple suffix sums by worklist position, for the in-scan abort:
  ///     after position i, at most suffix[i] more tuples can ever be added
  ///     to either count.
  struct LookaheadBoundsCache {
    size_t mask_words = 0;                      ///< words per pair mask
    std::vector<uint64_t> knowledge_masks;      ///< by worklist position
    const uint64_t* antichain_masks = nullptr;  ///< by antichain member
    size_t antichain_size = 0;                  ///< antichain members
    std::vector<size_t> class_tuples;           ///< by worklist position
    std::vector<size_t> tuples_rank_le;  ///< by rank r: Σ tuples, rank(K)≤r
    std::vector<size_t> tuples_rank_ge;  ///< by rank r: Σ tuples, rank(K)≥r
    std::vector<size_t> suffix_tuples;   ///< by worklist position, size+1
    size_t total_tuples = 0;             ///< Σ tuples over the worklist
  };
  /// Fills `cache` for the current worklist. O(worklist · mask_words + n).
  /// Invalidated by any accepted label (like InformativeClasses()).
  void PrepareLookaheadBounds(LookaheadBoundsCache& cache) const;

  /// Cheap per-candidate caps from the cache (see LookaheadBoundsCache).
  size_t LookaheadNegCap(const LookaheadBoundsCache& cache,
                         size_t class_id) const {
    return cache.tuples_rank_le[ClassKnowledgeRank(class_id)];
  }
  size_t LookaheadPosCap(const LookaheadBoundsCache& cache,
                         size_t class_id) const {
    return cache.antichain_size == 0
               ? cache.tuples_rank_ge[ClassKnowledgeRank(class_id)]
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
  ///   - classes partition the tuple set and agree with class_of_tuple,
  ///     and every Part(c) row is the mask of a partition;
  ///   - the worklist is exactly the ascending list of kInformative classes;
  ///   - for every informative class, the cached row equals the pair mask
  ///     of a from-scratch θ_P ∧ Part(c) recompute, and the incremental
  ///     status of every class matches a fresh InferenceState::Classify;
  ///   - every history() entry sits in a class labeled the same way;
  ///   - the worklist position index matches the worklist;
  ///   - the class table and the per-class arrays are correctly sized.
  /// O(classes · n²); tests call it directly, and every construction/
  /// labeling runs it under JIM_AUDIT (the parity suites and the ci.sh audit
  /// stage enable that mode).
  void CheckInvariants() const;

 private:
  /// Worklist-position sentinel for classes not on the worklist.
  static constexpr uint32_t kNoPos = 0xFFFFFFFFu;

  void BuildClasses(exec::ThreadPool* pool);
  /// Shared implementation of the two Submit entry points; `tuple_index` is
  /// the tuple recorded in the history (the one actually shown to the user).
  /// Returns what the label pruned through `impact` (left zeroed unless the
  /// labeled class was informative).
  util::Status LabelImpl(size_t class_id, size_t tuple_index, Label label,
                         LabelImpact& impact);

  /// Reclassification after a state change, over the dense worklist of
  /// still-informative classes only (uninformativeness is monotone, so
  /// settled classes are never revisited). Each variant is one pass of word
  /// operations over the cached pair masks that compacts the worklist in
  /// place and returns the classes and tuples that left the pool.
  ///
  /// Construction and positive labels: every cached row is refreshed in
  /// place (K_c ← K_c ∧ θ_P — the new θ_P refines the old one, so this is
  /// the full recompute), then the class is forced positive iff K_c == θ_P
  /// and forced negative iff K_c lies inside some forbidden zone.
  LabelImpact Propagate();
  /// After a negative label on `labeled_class`: θ_P and the cache are
  /// untouched, and the only new way out of the pool is the fresh forbidden
  /// zone F = K_labeled, so a class is pruned iff K_c ⊆ F.
  LabelImpact PropagateAfterNegative(size_t labeled_class);
  /// Drops `class_id` from the worklist (on explicit labeling) via its
  /// position index — no scan.
  void RemoveFromWorklist(size_t class_id);

  /// The class table, immutable once BuildClasses returns, so every copy of
  /// an engine shares it outright. Membership is in CSR form: class c's
  /// members are members[offsets[c], offsets[c + 1]), ascending, so the
  /// whole table is 8 bytes per tuple plus (4 + 8 · mask_words_) bytes per
  /// class, plus 4.
  struct ClassTable {
    std::vector<uint32_t> class_of_tuple;  ///< by tuple index
    std::vector<uint32_t> members;    ///< tuple ids, grouped by class
    std::vector<uint32_t> offsets;    ///< num_classes + 1 run starts
    std::vector<uint64_t> part_rows;  ///< Part(c), mask_words_ per class
  };

  /// The tuples whose class status satisfies `in_set`: one pass over
  /// class_of_tuple.
  util::DynamicBitset TuplesOfClasses(bool (*in_set)(ClassStatus)) const;

  std::shared_ptr<const TupleStore> store_;
  InferenceState state_;
  std::shared_ptr<const ClassTable> table_;
  size_t mask_words_ = 0;
  // The session state: O(classes), copied with the engine (labeled tuples
  // live in history_).
  std::vector<ClassStatus> class_status_;  ///< by class id
  /// Ids of informative classes, ascending — the dense worklist the
  /// Propagate variants scan and compact.
  std::vector<size_t> informative_;
  /// Position of each class in informative_ (kNoPos once it left the pool):
  /// O(1) locate for RemoveFromWorklist and the lookahead caps, maintained
  /// for free by the compaction loops.
  std::vector<uint32_t> worklist_pos_;
  /// K_c as pair masks, mask_words_ words per class; fresh for informative
  /// classes (see ClassKnowledge).
  std::vector<uint64_t> knowledge_rows_;
  std::vector<uint32_t> knowledge_rank_;  ///< rank(K_c)
  LabeledExamples history_;
  size_t wasted_interactions_ = 0;
};

}  // namespace jim::core

#endif  // JIM_CORE_ENGINE_H_
