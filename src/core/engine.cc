#include "core/engine.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "exec/parallel.h"
#include "lattice/pair_mask.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/hash.h"
#include "util/logging.h"

namespace jim::core {
namespace {

/// `store`, checked before the engine sizes anything from it: tuple and class
/// ids are uint32_t in the class table and in session checkpoints, so a
/// larger count would truncate them silently.
std::shared_ptr<const TupleStore> CheckedStore(
    std::shared_ptr<const TupleStore> store) {
  JIM_CHECK(store != nullptr);
  JIM_CHECK_LT(store->num_tuples(), size_t{1} << 32)
      << "tuple store too large: tuple and class ids are uint32_t";
  return store;
}

/// The distinct pair-mask rows seen so far, each under the id of its first
/// FindOrAdd (0, 1, …): an open-addressing table of ids over one flat row
/// buffer.
class MaskRowIndex {
 public:
  explicit MaskRowIndex(size_t words) : words_(words), slots_(16, kEmpty) {}

  size_t size() const { return size_; }
  const uint64_t* row(size_t id) const { return rows_.data() + id * words_; }

  /// The id of `probe` (`words` words), added under the next id if new.
  uint32_t FindOrAdd(const uint64_t* probe) {
    size_t slot = Hash(probe) & (slots_.size() - 1);
    for (; slots_[slot] != kEmpty; slot = (slot + 1) & (slots_.size() - 1)) {
      if (std::equal(probe, probe + words_, row(slots_[slot]))) {
        return slots_[slot];
      }
    }
    const uint32_t id = static_cast<uint32_t>(size_++);
    slots_[slot] = id;
    rows_.insert(rows_.end(), probe, probe + words_);
    if (2 * size_ > slots_.size()) Grow();
    return id;
  }

  /// Every row, by id, in a vector sized exactly.
  std::vector<uint64_t> Rows() const { return {rows_.begin(), rows_.end()}; }

 private:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;

  size_t Hash(const uint64_t* words) const {
    uint64_t h = util::kFnv1a64OffsetBasis;
    for (size_t w = 0; w < words_; ++w) {
      h = (h ^ words[w]) * 0x9e3779b97f4a7c15ull;
      h ^= h >> 29;
    }
    return static_cast<size_t>(h);
  }

  void Grow() {
    std::vector<uint32_t> slots(2 * slots_.size(), kEmpty);
    for (uint32_t id = 0; id < size_; ++id) {
      size_t slot = Hash(row(id)) & (slots.size() - 1);
      while (slots[slot] != kEmpty) slot = (slot + 1) & (slots.size() - 1);
      slots[slot] = id;
    }
    slots_ = std::move(slots);
  }

  size_t words_;
  std::vector<uint32_t> slots_;  ///< ids; a power-of-two count, ≤ half full
  std::vector<uint64_t> rows_;   ///< words_ per id
  size_t size_ = 0;
};

}  // namespace

std::string_view ClassStatusToString(ClassStatus status) {
  switch (status) {
    case ClassStatus::kInformative:
      return "informative";
    case ClassStatus::kForcedPositive:
      return "forced-positive";
    case ClassStatus::kForcedNegative:
      return "forced-negative";
    case ClassStatus::kLabeledPositive:
      return "labeled-positive";
    case ClassStatus::kLabeledNegative:
      return "labeled-negative";
  }
  return "?";
}

std::string_view TupleStatusToString(TupleStatus status) {
  switch (status) {
    case TupleStatus::kInformative:
      return "informative";
    case TupleStatus::kForcedPositive:
      return "forced-positive";
    case TupleStatus::kForcedNegative:
      return "forced-negative";
    case TupleStatus::kLabeledPositive:
      return "labeled-positive";
    case TupleStatus::kLabeledNegative:
      return "labeled-negative";
  }
  return "?";
}

InferenceEngine::InferenceEngine(std::shared_ptr<const TupleStore> store,
                                 exec::ThreadPool* pool)
    : store_(CheckedStore(std::move(store))),
      state_(store_->num_attributes()) {
  {
    JIM_SPAN(obs::kHistEngineBuildMicros);
    BuildClasses(pool);
    // Some tuples may be uninformative from the start (e.g. all-values-equal
    // tuples are selected by every predicate).
    Propagate();
  }
  JIM_COUNT(obs::kCounterEngineBuilds);
  JIM_COUNT_N(obs::kCounterEngineClassesBuilt, num_classes());
  JIM_AUDIT(CheckInvariants());
}

InferenceEngine::InferenceEngine(std::shared_ptr<const TupleStore> store)
    : InferenceEngine(std::move(store), &exec::SharedPool()) {}

InferenceEngine::InferenceEngine(std::shared_ptr<const rel::Relation> relation)
    : InferenceEngine(MakeRelationStore(std::move(relation))) {}

void InferenceEngine::BuildClasses(exec::ThreadPool* pool) {
  const size_t num_tuples = store_->num_tuples();
  const size_t n = store_->num_attributes();
  mask_words_ = lat::PairMaskWords(n);
  const size_t words = mask_words_;
  auto table = std::make_shared<ClassTable>();
  std::vector<uint32_t>& class_of_tuple = table->class_of_tuple;
  class_of_tuple.resize(num_tuples);

  // The tuples split into static contiguous chunks, one per pool thread.
  const size_t chunks =
      pool == nullptr ? 1 : std::max<size_t>(1, std::min(pool->threads(),
                                                         num_tuples));
  const auto chunk_begin = [&](size_t j) { return j * num_tuples / chunks; };
  const auto for_each_chunk = [&](const auto& body) {
    if (chunks > 1) {
      pool->ParallelFor(chunks, [&](size_t j, size_t) { body(j); });
    } else {
      body(0);
    }
  };

  // Phase 1 (parallel): each chunk computes its tuples' Part(t) masks one at
  // a time into a probe row and groups them in its own index, writing each
  // tuple's chunk-local id (first-occurrence order within the chunk) into
  // class_of_tuple. No per-tuple mask is kept.
  std::vector<MaskRowIndex> local(chunks, MaskRowIndex(words));
  for_each_chunk([&](size_t j) {
    std::vector<uint32_t> codes(n);
    std::vector<uint64_t> probe(words);
    for (size_t t = chunk_begin(j); t < chunk_begin(j + 1); ++t) {
      store_->TupleCodes(t, codes.data());
      std::fill(probe.begin(), probe.end(), 0);  // the fill only ORs bits in
      lat::FillCodePairMask(codes.data(), n, rel::kNullCode, probe.data());
      class_of_tuple[t] = local[j].FindOrAdd(probe.data());
    }
  });

  // Phase 2 (serial): merge the chunks' distinct rows in chunk order. A
  // class's first chunk holds its first tuple, and within a chunk local ids
  // follow first occurrence, so the global ids follow first-occurrence tuple
  // order — bitwise-identical at any thread count.
  MaskRowIndex global(words);
  std::vector<std::vector<uint32_t>> remap(chunks);
  for (size_t j = 0; j < chunks; ++j) {
    remap[j].resize(local[j].size());
    for (size_t id = 0; id < local[j].size(); ++id) {
      remap[j][id] = global.FindOrAdd(local[j].row(id));
    }
  }
  local.clear();
  const size_t num_classes = global.size();
  table->part_rows = global.Rows();

  // Phase 3: remap to global ids (parallel), then lay the members out in
  // CSR form with a counting pass (serial; ascending t keeps each class's
  // members ascending).
  for_each_chunk([&](size_t j) {
    for (size_t t = chunk_begin(j); t < chunk_begin(j + 1); ++t) {
      class_of_tuple[t] = remap[j][class_of_tuple[t]];
    }
  });
  std::vector<uint32_t>& offsets = table->offsets;
  offsets.assign(num_classes + 1, 0);
  for (uint32_t c : class_of_tuple) ++offsets[c + 1];
  for (size_t c = 0; c < num_classes; ++c) offsets[c + 1] += offsets[c];
  std::vector<uint32_t> next(offsets.begin(), offsets.end() - 1);
  table->members.resize(num_tuples);
  for (size_t t = 0; t < num_tuples; ++t) {
    table->members[next[class_of_tuple[t]]++] = static_cast<uint32_t>(t);
  }
  JIM_GAUGE_SET(obs::kGaugeEngineClassTableBytes,
                static_cast<int64_t>(
                    sizeof(uint32_t) * (table->class_of_tuple.capacity() +
                                        table->members.capacity() +
                                        table->offsets.capacity()) +
                    sizeof(uint64_t) * table->part_rows.capacity()));

  // Initially θ_P = ⊤, so K_c = ⊤ ∧ Part(c) = Part(c); every class starts on
  // the worklist.
  knowledge_rows_ = table->part_rows;
  knowledge_rank_.resize(num_classes);
  class_status_.assign(num_classes, ClassStatus::kInformative);
  informative_.reserve(num_classes);
  worklist_pos_.reserve(num_classes);
  for (size_t c = 0; c < num_classes; ++c) {
    knowledge_rank_[c] = static_cast<uint32_t>(
        lat::MaskRank(knowledge_rows_.data() + c * words, words, n));
    informative_.push_back(c);
    worklist_pos_.push_back(static_cast<uint32_t>(c));
  }
  table_ = std::move(table);
}

InferenceEngine::LabelImpact InferenceEngine::Propagate() {
  const size_t words = mask_words_;
  const size_t n = state_.num_attributes();
  const uint64_t* theta = state_.theta_mask();
  size_t out = 0;
  LabelImpact pruned;
  for (size_t c : informative_) {
    // The in-place refresh below is the one mutation of K_c anywhere in the
    // engine.
    uint64_t* k = knowledge_rows_.data() + c * words;
    // The new θ_P refines the old, so meeting the *cached* knowledge with it
    // is the full refresh: K ∧ θ' = (θ ∧ Part(c)) ∧ θ' = θ' ∧ Part(c).
    bool changed = false;
    for (size_t w = 0; w < words; ++w) {
      const uint64_t refreshed = k[w] & theta[w];
      changed |= refreshed != k[w];
      k[w] = refreshed;
    }
    switch (state_.Classify(k)) {
      case TupleClassification::kForcedPositive:
        class_status_[c] = ClassStatus::kForcedPositive;
        break;
      case TupleClassification::kForcedNegative:
        class_status_[c] = ClassStatus::kForcedNegative;
        break;
      case TupleClassification::kInformative:
        break;
    }
    if (class_status_[c] != ClassStatus::kInformative) {
      worklist_pos_[c] = kNoPos;
      ++pruned.pruned_classes;
      pruned.pruned_tuples += tuple_class(c).size();
    } else {
      // rank(K_c) is read per class by every decision; recount it here,
      // where the row changes, and only for classes that stay.
      if (changed) {
        knowledge_rank_[c] = static_cast<uint32_t>(lat::MaskRank(k, words, n));
      }
      worklist_pos_[c] = static_cast<uint32_t>(out);
      informative_[out++] = c;
    }
  }
  informative_.resize(out);
  JIM_COUNT(obs::kCounterEnginePropagateRuns);
  JIM_COUNT_N(obs::kCounterEnginePrunedClasses, pruned.pruned_classes);
  JIM_OBSERVE(obs::kHistEngineWorklistSize, out);
  return pruned;
}

InferenceEngine::LabelImpact InferenceEngine::PropagateAfterNegative(
    size_t labeled_class) {
  // θ_P is unchanged, so the labeled class's cached row is still exactly the
  // forbidden zone ApplyLabel inserted (and nothing on this path writes a
  // knowledge row).
  const size_t words = mask_words_;
  const uint64_t* forbidden = KnowledgeRow(labeled_class);
  size_t out = 0;
  LabelImpact pruned;
  for (size_t c : informative_) {
    if (lat::MaskSubset(KnowledgeRow(c), forbidden, words)) {
      class_status_[c] = ClassStatus::kForcedNegative;
      worklist_pos_[c] = kNoPos;
      ++pruned.pruned_classes;
      pruned.pruned_tuples += tuple_class(c).size();
    } else {
      worklist_pos_[c] = static_cast<uint32_t>(out);
      informative_[out++] = c;
    }
  }
  informative_.resize(out);
  JIM_COUNT(obs::kCounterEnginePropagateRuns);
  JIM_COUNT_N(obs::kCounterEnginePrunedClasses, pruned.pruned_classes);
  JIM_OBSERVE(obs::kHistEngineWorklistSize, out);
  return pruned;
}

void InferenceEngine::RemoveFromWorklist(size_t class_id) {
  const uint32_t pos = worklist_pos_[class_id];
  JIM_CHECK(pos != kNoPos && pos < informative_.size() &&
            informative_[pos] == class_id)
      << "worklist position index out of sync for class " << class_id;
  informative_.erase(informative_.begin() + pos);
  for (size_t i = pos; i < informative_.size(); ++i) {
    worklist_pos_[informative_[i]] = static_cast<uint32_t>(i);
  }
  worklist_pos_[class_id] = kNoPos;
}

size_t InferenceEngine::NumInformativeTuples() const {
  size_t count = 0;
  for (size_t c : informative_) count += tuple_class(c).size();
  return count;
}

bool InferenceEngine::IsDone() const { return informative_.empty(); }

lat::Partition InferenceEngine::ClassPartition(size_t class_id) const {
  return lat::PairMaskToPartition(
      table_->part_rows.data() + class_id * mask_words_,
      state_.num_attributes());
}

JoinPredicate InferenceEngine::Result() const {
  return JoinPredicate(store_->schema(), state_.theta_p());
}

util::Status InferenceEngine::LabelImpl(size_t class_id, size_t tuple_index,
                                        Label label, LabelImpact& impact) {
  const ClassStatus before = class_status_[class_id];
  // Relabeling an explicitly labeled class is rejected as contradictory or
  // accepted as a (wasted) repetition.
  if (before == ClassStatus::kLabeledPositive ||
      before == ClassStatus::kLabeledNegative) {
    const bool agrees = (before == ClassStatus::kLabeledPositive) ==
                        (label == Label::kPositive);
    if (!agrees) {
      JIM_COUNT(obs::kCounterEngineLabelsRejected);
      return util::FailedPreconditionError(
          "tuple was already labeled with the opposite label");
    }
    ++wasted_interactions_;
    history_.push_back(LabeledExample{tuple_index, label});
    JIM_COUNT(obs::kCounterEngineLabelsAccepted);
    JIM_COUNT(obs::kCounterEngineLabelsWasted);
    return util::OkStatus();
  }

  const bool was_informative = before == ClassStatus::kInformative;
  {
    // The cached row meets θ_P to θ_P ∧ Part(c) even for a class that left
    // the worklist, so it stands in for Part(c).
    util::Status applied = state_.ApplyLabel(KnowledgeRow(class_id), label);
    if (!applied.ok()) {
      JIM_COUNT(obs::kCounterEngineLabelsRejected);
      return applied;
    }
  }
  JIM_COUNT(obs::kCounterEngineLabelsAccepted);
  // One JIM_COUNT site per name: the macro caches its counter in a
  // function-local static, so the name must be a per-site constant.
  if (label == Label::kPositive) {
    JIM_COUNT(obs::kCounterEngineLabelsPositive);
  } else {
    JIM_COUNT(obs::kCounterEngineLabelsNegative);
  }

  class_status_[class_id] = label == Label::kPositive
                                ? ClassStatus::kLabeledPositive
                                : ClassStatus::kLabeledNegative;
  history_.push_back(LabeledExample{tuple_index, label});
  if (!was_informative) {
    // Consistent label on a grayed-out tuple: accepted, teaches nothing.
    ++wasted_interactions_;
    JIM_COUNT(obs::kCounterEngineLabelsWasted);
    return util::OkStatus();
  }
  // The labeled class leaves the pool as kLabeled*; pull it off the worklist
  // before propagation so reclassification cannot overwrite that status.
  RemoveFromWorklist(class_id);
  impact = label == Label::kPositive ? Propagate()
                                     : PropagateAfterNegative(class_id);
  ++impact.pruned_classes;
  impact.pruned_tuples += tuple_class(class_id).size();
  return util::OkStatus();
}

TupleStatus InferenceEngine::tuple_status(size_t tuple_index) const {
  JIM_CHECK_LT(tuple_index, store_->num_tuples());
  const ClassStatus status = class_status_[class_of_tuple(tuple_index)];
  if (IsInformative(status)) return TupleStatus::kInformative;
  // Only a labeled class holds labeled tuples, and every history entry in it
  // carries the class's label (a contradiction is rejected unrecorded).
  const bool labeled =
      (status == ClassStatus::kLabeledPositive ||
       status == ClassStatus::kLabeledNegative) &&
      std::any_of(history_.begin(), history_.end(),
                  [&](const LabeledExample& example) {
                    return example.tuple_index == tuple_index;
                  });
  if (IsPositive(status)) {
    return labeled ? TupleStatus::kLabeledPositive
                   : TupleStatus::kForcedPositive;
  }
  return labeled ? TupleStatus::kLabeledNegative : TupleStatus::kForcedNegative;
}

util::Status InferenceEngine::SubmitTupleLabel(size_t tuple_index,
                                               Label label,
                                               LabelImpact* impact) {
  LabelImpact pruned;
  util::Status status = util::OutOfRangeError("tuple index out of range");
  if (tuple_index < store_->num_tuples()) {
    status = LabelImpl(class_of_tuple(tuple_index), tuple_index, label, pruned);
    // Audited on rejection too: a refused label must leave the engine intact.
    JIM_AUDIT(CheckInvariants());
  }
  if (impact != nullptr) *impact = pruned;
  return status;
}

util::Status InferenceEngine::SubmitClassLabel(size_t class_id, Label label,
                                               LabelImpact* impact) {
  LabelImpact pruned;
  util::Status status = util::OutOfRangeError("class id out of range");
  if (class_id < num_classes()) {
    status = LabelImpl(class_id, tuple_class(class_id).tuple_indices.front(),
                       label, pruned);
    JIM_AUDIT(CheckInvariants());
  }
  if (impact != nullptr) *impact = pruned;
  return status;
}

InferenceEngine::LabelImpactPair InferenceEngine::SimulateLabelBoth(
    size_t class_id) const {
  LookaheadBoundsCache cache;
  PrepareLookaheadBounds(cache);
  LabelImpactPair impact;
  SimulateLabelBothBounded(class_id, cache, nullptr,
                           -std::numeric_limits<double>::infinity(), &impact,
                           nullptr);
  return impact;
}

void InferenceEngine::PrepareLookaheadBounds(
    LookaheadBoundsCache& cache) const {
  const size_t n = store_->num_attributes();
  const std::vector<size_t>& informative = informative_;
  const size_t words = mask_words_;
  cache.mask_words = words;
  cache.knowledge_masks.resize(informative.size() * words);
  cache.antichain_masks = state_.forbidden_masks();
  cache.antichain_size = state_.num_forbidden();
  // Cached rows and member counts gathered in worklist order, and the
  // histogram of worklist tuple mass by rank(K_c) (prefix/suffix sums taken
  // in place below). rank = n − #blocks ∈ [0, n).
  cache.class_tuples.resize(informative.size());
  cache.tuples_rank_le.assign(n, 0);
  cache.tuples_rank_ge.assign(n, 0);
  for (size_t i = 0; i < informative.size(); ++i) {
    const size_t c = informative[i];
    const uint64_t* row = KnowledgeRow(c);
    std::copy(row, row + words, cache.knowledge_masks.data() + i * words);
    cache.class_tuples[i] = tuple_class(c).size();
    cache.tuples_rank_le[knowledge_rank_[c]] += cache.class_tuples[i];
  }
  size_t run = 0;
  for (size_t r = n; r-- > 0;) {
    run += cache.tuples_rank_le[r];
    cache.tuples_rank_ge[r] = run;
  }
  cache.total_tuples = run;
  for (size_t r = 1; r < n; ++r) {
    cache.tuples_rank_le[r] += cache.tuples_rank_le[r - 1];
  }
  cache.suffix_tuples.assign(informative.size() + 1, 0);
  size_t suffix = 0;
  for (size_t i = informative.size(); i-- > 0;) {
    suffix += cache.class_tuples[i];
    cache.suffix_tuples[i] = suffix;
  }
}

bool InferenceEngine::SimulateLabelBothBounded(
    size_t class_id, const LookaheadBoundsCache& cache,
    const AggregateBoundFn* objective, double threshold,
    LabelImpactPair* impact, double* skip_bound) const {
  JIM_CHECK_LT(class_id, num_classes());
  JIM_CHECK(class_status_[class_id] == ClassStatus::kInformative);
  const size_t size = cache.class_tuples.size();
  JIM_CHECK_EQ(size, informative_.size())
      << "lookahead cache prepared for another worklist";
  // No bound falls below −∞, so that threshold reads no cap and runs neither
  // the precheck nor the in-scan abort: the plain simulation.
  const bool cutoff = threshold > -std::numeric_limits<double>::infinity();
  size_t pos_cap = 0;
  size_t neg_cap = 0;
  if (cutoff) {
    pos_cap = LookaheadPosCap(cache, class_id);
    neg_cap = LookaheadNegCap(cache, class_id);
    // O(1) precheck: can the candidate beat the threshold at all?
    const double bound = objective->UpperBound(pos_cap, neg_cap);
    if (bound < threshold) {
      *skip_bound = bound;
      JIM_COUNT(obs::kCounterEngineCutoffSkips);
      return false;
    }
  }
  const size_t words = cache.mask_words;
  const size_t self = worklist_pos_[class_id];
  const uint64_t* k_labeled = cache.knowledge_masks.data() + self * words;
  const uint64_t* antichain = cache.antichain_masks;

  LabelImpactPair result;
  result.positive.pruned_classes = result.negative.pruned_classes = 1;
  result.positive.pruned_tuples = result.negative.pruned_tuples =
      cache.class_tuples[self];
  for (size_t i = 0; i < size; ++i) {
    if (cutoff && (i & 63u) == 63u) {
      // In-scan abort: counts so far plus the remaining worklist tuple mass
      // (still capped) bound anything this candidate can reach. The suffix
      // may re-count the candidate's own class — harmless, bounds only widen.
      const size_t rem = cache.suffix_tuples[i];
      const double bound = objective->UpperBound(
          std::min(result.positive.pruned_tuples + rem, pos_cap),
          std::min(result.negative.pruned_tuples + rem, neg_cap));
      if (bound < threshold) {
        *skip_bound = bound;
        JIM_COUNT(obs::kCounterEngineCutoffAborts);
        return false;
      }
    }
    if (i == self) continue;
    const uint64_t* k = cache.knowledge_masks.data() + i * words;
    const size_t members = cache.class_tuples[i];
    // Negative answer: the forbidden zone grows by exactly k_labeled, so the
    // class is pruned iff its knowledge falls inside it.
    if (lat::MaskSubset(k, k_labeled, words)) {
      ++result.negative.pruned_classes;
      result.negative.pruned_tuples += members;
    }
    // Positive answer: the hypothetical θ_P is k_labeled, and the class's
    // hypothetical knowledge is k_labeled ∧ k (meeting cached knowledge is
    // enough — both already lie below the current θ_P). It is forced
    // positive when that meet is k_labeled itself, and forced negative when
    // the meet lies inside a forbidden zone: testing against the *current*
    // antichain is exact, since restricting it to the new θ_P never changes
    // domination of partitions below that θ_P.
    bool pruned = lat::MaskSubset(k_labeled, k, words);
    for (size_t m = 0; !pruned && m < cache.antichain_size; ++m) {
      pruned =
          lat::MaskMeetSubset(k_labeled, k, antichain + m * words, words);
    }
    if (pruned) {
      ++result.positive.pruned_classes;
      result.positive.pruned_tuples += members;
    }
  }
  // Counted only on full evaluation, so skips, aborts and evaluations
  // partition the candidates.
  JIM_COUNT(obs::kCounterEngineSimulateLabelBoth);
  *impact = result;
  return true;
}

void InferenceEngine::CheckInvariants() const {
  state_.CheckInvariants();

  // The class table and the per-class arrays sized for this instance.
  JIM_CHECK(store_ != nullptr && table_ != nullptr);
  const size_t num_tuples = store_->num_tuples();
  JIM_CHECK(!table_->offsets.empty());
  const size_t num_classes = table_->offsets.size() - 1;
  JIM_CHECK_EQ(table_->class_of_tuple.size(), num_tuples);
  JIM_CHECK_EQ(table_->members.size(), num_tuples);
  JIM_CHECK_EQ(class_status_.size(), num_classes);
  JIM_CHECK_EQ(mask_words_, lat::PairMaskWords(store_->num_attributes()));
  JIM_CHECK_EQ(table_->part_rows.size(), num_classes * mask_words_);
  JIM_CHECK_EQ(knowledge_rows_.size(), num_classes * mask_words_);
  JIM_CHECK_EQ(knowledge_rank_.size(), num_classes);

  // Classes partition the tuple set, in agreement with class_of_tuple:
  // non-empty runs of ascending members covering the permutation, with
  // class ids in first-occurrence order.
  JIM_CHECK_EQ(table_->offsets.front(), 0u);
  JIM_CHECK_EQ(table_->offsets.back(), num_tuples)
      << "classes do not partition the tuple set";
  for (size_t c = 0; c < num_classes; ++c) {
    JIM_CHECK_LT(table_->offsets[c], table_->offsets[c + 1])
        << "empty class " << c;
    const ClassMembers members = tuple_class(c).tuple_indices;
    if (c > 0) {
      JIM_CHECK_LT(tuple_class(c - 1).tuple_indices.front(), members.front())
          << "class " << c << " is out of first-occurrence order";
    }
    for (size_t i = 0; i < members.size(); ++i) {
      const size_t t = members[i];
      JIM_CHECK_LT(t, num_tuples);
      if (i > 0) {
        JIM_CHECK_LT(members[i - 1], t)
            << "class " << c << " members not strictly ascending";
      }
      JIM_CHECK_EQ(class_of_tuple(t), c)
          << "tuple " << t << " listed in class " << c
          << " but mapped elsewhere";
    }
  }

  // Worklist = ascending ids of exactly the kInformative classes.
  const std::vector<size_t>& informative = informative_;
  for (size_t i = 0; i < informative.size(); ++i) {
    JIM_CHECK_LT(informative[i], num_classes);
    if (i > 0) {
      JIM_CHECK_LT(informative[i - 1], informative[i])
          << "worklist not strictly ascending at position " << i;
    }
  }
  size_t informative_count = 0;
  for (size_t c = 0; c < num_classes; ++c) {
    const bool on_worklist = std::binary_search(
        informative.begin(), informative.end(), c);
    const bool is_informative =
        class_status_[c] == ClassStatus::kInformative;
    JIM_CHECK_EQ(on_worklist, is_informative)
        << "worklist/status disagreement on class " << c << " ("
        << ClassStatusToString(class_status_[c]) << ")";
    if (is_informative) ++informative_count;
  }
  JIM_CHECK_EQ(informative_count, informative.size());

  // Position index mirrors the worklist exactly; off-pool classes carry the
  // sentinel.
  JIM_CHECK_EQ(worklist_pos_.size(), num_classes);
  for (size_t i = 0; i < informative.size(); ++i) {
    JIM_CHECK_EQ(worklist_pos_[informative[i]],
                 static_cast<uint32_t>(i))
        << "worklist_pos out of sync at position " << i;
  }
  for (size_t c = 0; c < num_classes; ++c) {
    if (class_status_[c] != ClassStatus::kInformative) {
      JIM_CHECK_EQ(worklist_pos_[c], kNoPos)
          << "off-pool class " << c << " still has a worklist position";
    }
  }

  // Per-class: cached knowledge fresh for informative classes, and every
  // non-explicit status reproducible from a from-scratch classification.
  std::vector<uint64_t> expected(mask_words_);
  for (size_t c = 0; c < num_classes; ++c) {
    // The Part(c) row is a partition's mask: re-encoding its decode is exact.
    const lat::Partition part = ClassPartition(c);
    part.CheckInvariants();
    std::fill(expected.begin(), expected.end(), 0);
    lat::FillPairMask(part, expected.data());
    JIM_CHECK(std::equal(expected.begin(), expected.end(),
                         table_->part_rows.data() + c * mask_words_))
        << "Part(c) row " << c << " is not the mask of a partition";
    switch (class_status_[c]) {
      case ClassStatus::kInformative:
        std::fill(expected.begin(), expected.end(), 0);
        lat::FillPairMask(state_.theta_p().Meet(part), expected.data());
        JIM_CHECK(std::equal(expected.begin(), expected.end(),
                             KnowledgeRow(c)))
            << "stale knowledge cache K_" << c;
        JIM_CHECK_EQ(ClassKnowledgeRank(c),
                     lat::MaskRank(expected.data(), mask_words_,
                                   store_->num_attributes()))
            << "stale knowledge rank K_" << c;
        JIM_CHECK(state_.Classify(part) == TupleClassification::kInformative)
            << "class " << c << " marked informative but classifies otherwise";
        break;
      case ClassStatus::kForcedPositive:
        JIM_CHECK(state_.Classify(part) ==
                  TupleClassification::kForcedPositive)
            << "class " << c << " wrongly forced positive";
        break;
      case ClassStatus::kForcedNegative:
        JIM_CHECK(state_.Classify(part) ==
                  TupleClassification::kForcedNegative)
            << "class " << c << " wrongly forced negative";
        break;
      case ClassStatus::kLabeledPositive:
        // An accepted positive label implies every consistent predicate now
        // selects the class (the label made it so).
        JIM_CHECK(state_.Classify(part) ==
                  TupleClassification::kForcedPositive)
            << "class " << c << " labeled positive but not forced by θ_P";
        break;
      case ClassStatus::kLabeledNegative:
        JIM_CHECK(state_.Classify(part) ==
                  TupleClassification::kForcedNegative)
            << "class " << c << " labeled negative but not in a forbidden zone";
        break;
    }
  }

  // Every recorded label sits in a class labeled the same way, i.e. shows
  // as labeled with that label.
  for (const LabeledExample& example : history_) {
    const TupleStatus status = tuple_status(example.tuple_index);
    JIM_CHECK(status == (example.label == Label::kPositive
                             ? TupleStatus::kLabeledPositive
                             : TupleStatus::kLabeledNegative))
        << "tuple " << example.tuple_index << " labeled "
        << LabelToString(example.label) << " shows as "
        << TupleStatusToString(status);
  }
}

InferenceEngine::Stats InferenceEngine::GetStats() const {
  Stats stats;
  stats.num_tuples = store_->num_tuples();
  stats.num_classes = num_classes();
  stats.interactions = history_.size();
  stats.wasted_interactions = wasted_interactions_;
  for (size_t c = 0; c < num_classes(); ++c) {
    const size_t members = tuple_class(c).size();
    switch (class_status_[c]) {
      case ClassStatus::kInformative:
        ++stats.informative_classes;
        stats.informative_tuples += members;
        break;
      case ClassStatus::kForcedPositive:
      case ClassStatus::kLabeledPositive:
        stats.forced_positive_tuples += members;
        break;
      case ClassStatus::kForcedNegative:
      case ClassStatus::kLabeledNegative:
        stats.forced_negative_tuples += members;
        break;
    }
  }
  // Labeled classes split into distinct labeled tuples and forced mates, as
  // in tuple_status(); no tuple holds both labels, so 2·t + negative dedups.
  std::vector<size_t> labeled;
  for (const LabeledExample& e : history_) {
    labeled.push_back(2 * e.tuple_index + (e.label == Label::kNegative));
  }
  std::sort(labeled.begin(), labeled.end());
  labeled.erase(std::unique(labeled.begin(), labeled.end()), labeled.end());
  stats.explicitly_labeled_tuples = labeled.size();
  for (size_t key : labeled) {
    --(key % 2 == 0 ? stats.forced_positive_tuples
                    : stats.forced_negative_tuples);
  }
  return stats;
}

}  // namespace jim::core
