#ifndef JIM_CORE_ENGINE_H_
#define JIM_CORE_ENGINE_H_

#include <algorithm>
#include <array>
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
#include "util/status.h"

namespace jim::core {

/// An equivalence class of tuples: all tuples of the instance sharing the
/// same value partition Part(t), i.e. the same pair mask. Tuples in one class
/// are interchangeable for inference — labeling any member forces the labels
/// of all the others — so the engine reasons over classes and the paper's
/// "label propagation" (graying out uninformative tuples) falls out for
/// free. The class table keeps a class's first tuple (the one shown to the
/// user) and size; its members are the tuples t with class_of_tuple(t) == c.
struct TupleClass {
  std::array<uint32_t, 1> tuple_indices;  ///< [0]: the first tuple
  uint32_t count;                         ///< members

  size_t size() const { return count; }
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
  /// (tuple → class map, first tuple and size per class, Part(c) rows) and
  /// one shared store: a copy shares those two outright and copies the
  /// per-class session state — statuses, worklist, worklist positions, K_c
  /// rows and ranks — O(classes), never O(tuples). This is what lets
  /// BatchSessionRunner fan independent sessions out over copies of one
  /// built engine. Copies share nothing they write, so they may be labeled
  /// from different threads concurrently; copying an engine *while another
  /// thread mutates that same engine* is a race, so copy before fanning out.
  InferenceEngine(const InferenceEngine&) = default;
  InferenceEngine& operator=(const InferenceEngine&) = default;

  /// The instance, through the storage seam.
  const TupleStore& store() const { return *store_; }
  const InferenceState& state() const { return state_; }

  size_t num_tuples() const { return store_->num_tuples(); }
  size_t num_classes() const { return table_->classes.size(); }
  /// The class's first tuple and size, in the shared class table.
  const TupleClass& tuple_class(size_t class_id) const {
    return table_->classes[class_id];
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

  /// rank(K_c) = n − #blocks of an informative class's knowledge, stored
  /// beside the cached row wherever the row is written.
  size_t ClassKnowledgeRank(size_t class_id) const {
    return knowledge_rank_[class_id];
  }

  /// The class's cached knowledge row (mask_words words). For an
  /// informative class it is K_c = θ_P ∧ Part(c) as a pair mask
  /// (lattice/pair_mask.h), maintained incrementally: a positive label
  /// shrinks θ_P, and since the new θ_P refines the old one, K_c' = K_c ∧ θ_P'
  /// is one word-wise AND over the cached row; negative labels leave θ_P
  /// (and the cache) alone. For any other class it is θ' ∧ Part(c) for some
  /// earlier θ' ⊇ θ_P, so InferenceState::Classify and ApplyLabel take it in
  /// place of Part(c) for every class.
  const uint64_t* KnowledgeRow(size_t class_id) const {
    return knowledge_rows_.data() + class_id * mask_words_;
  }

  /// Total member count over informative classes.
  size_t NumInformativeTuples() const;

  /// True when every class is labeled or forced: all consistent predicates
  /// are instance-equivalent and Result() is the canonical answer.
  bool IsDone() const;

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
  /// Exactly what submitting each label would prune. Prepares the
  /// decision's LookaheadColumns and scans them, so a caller scoring many
  /// classes should prepare the columns once and call the overload below.
  struct LabelImpactPair {
    LabelImpact positive;
    LabelImpact negative;
  };
  LabelImpactPair SimulateLabelBoth(size_t class_id) const;

  /// The worklist transposed, built once per lookahead decision by
  /// PrepareLookaheadColumns and only read by every SimulateLabelBoth call
  /// of that decision. A partition over n attributes is its set of co-block
  /// pairs (lattice/pair_mask.h); column p is a bitset over worklist
  /// positions holding the classes whose K_c contains pair p. Each of the
  /// three impact tests is then an AND over whole columns — 64 classes per
  /// word operation — instead of a subset test per class:
  ///   K_d ≤ k      ⇔ d ∈ ⋀_{p∉k} ¬col[p];
  ///   k ≤ K_d      ⇔ d ∈ ⋀_{p∈k} col[p];
  ///   k ∧ K_d ≤ F  ⇔ d ∈ ⋀_{p∈k∖F} ¬col[p].
  /// The columns are cut into tiles of kTileWords words (512 positions), and
  /// a tile's columns are stored together, so a scan keeps each set of a
  /// tile in registers while it ANDs in the tile's columns, with no
  /// branches and no scratch buffer.
  struct LookaheadColumns {
    static constexpr size_t kTileWords = 8;
    size_t positions = 0;  ///< worklist size m the columns describe
    size_t tiles = 0;      ///< ⌈m / (64 · kTileWords)⌉
    size_t pairs = 0;      ///< n(n−1)/2 columns
    /// Column p of tile t: kTileWords words at (t · pairs + p) · kTileWords.
    std::vector<uint64_t> bits;
    /// The worklist's positions, kTileWords words per tile (a last, partial
    /// tile's tail bits are clear).
    std::vector<uint64_t> live;
    std::vector<uint32_t> class_tuples;  ///< member count by position
  };
  /// Fills `columns` for the current worklist, reusing its buffers.
  /// O(worklist · (n² + mask_words)). Invalidated by any accepted label
  /// (like InformativeClasses()).
  void PrepareLookaheadColumns(LookaheadColumns& columns) const;

  /// The one impact-pair scan (see SimulateLabelBoth), over `columns`
  /// prepared for the current worklist. The candidate's own row is read
  /// straight from KnowledgeRow, and both sets contain the candidate once.
  /// Reads only `columns`, the engine's rows and its antichain, and writes
  /// nothing, so any number of threads may score candidates of one engine
  /// concurrently — the entry point of the parallel lookahead.
  /// O((n² + |K_c| · antichain) · ⌈m/64⌉) word operations.
  LabelImpactPair SimulateLabelBoth(size_t class_id,
                                    const LookaheadColumns& columns) const;

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
  ///   - class ids follow first occurrence in class_of_tuple, and each
  ///     class's first tuple and size are those class_of_tuple gives it;
  ///   - every Part(c) row is the mask of a partition;
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
  /// an engine shares it outright: 4 bytes per tuple plus (8 + 8 ·
  /// mask_words_) bytes per class. class_of_tuple is not value-initialised:
  /// the build's parallel chunks touch its pages first.
  struct ClassTable {
    std::unique_ptr<uint32_t[]> class_of_tuple;  ///< by tuple index
    std::vector<TupleClass> classes;             ///< by class id
    std::vector<uint64_t> part_rows;  ///< Part(c), mask_words_ per class
  };

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
  /// O(1) locate for RemoveFromWorklist, maintained for free by the
  /// compaction loops.
  std::vector<uint32_t> worklist_pos_;
  /// K_c as pair masks, mask_words_ words per class; fresh for informative
  /// classes (see KnowledgeRow).
  std::vector<uint64_t> knowledge_rows_;
  std::vector<uint32_t> knowledge_rank_;  ///< rank(K_c)
  LabeledExamples history_;
  size_t wasted_interactions_ = 0;
};

}  // namespace jim::core

#endif  // JIM_CORE_ENGINE_H_
