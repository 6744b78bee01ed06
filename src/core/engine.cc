#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <unordered_map>

#include "exec/parallel.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/hash.h"
#include "util/logging.h"

namespace jim::core {

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
    : store_(std::move(store)), state_(store_->num_attributes()) {
  JIM_CHECK(store_ != nullptr);
  {
    JIM_SPAN(obs::kHistEngineBuildMicros);
    BuildClasses(pool);
    // Some tuples may be uninformative from the start (e.g. all-values-equal
    // tuples are selected by every predicate).
    Propagate();
    RebuildPairCover();
    InitializeWatches();
  }
  JIM_COUNT(obs::kCounterEngineBuilds);
  JIM_COUNT_N(obs::kCounterEngineClassesBuilt, classes_->size());
  JIM_AUDIT(CheckInvariants());
}

InferenceEngine::InferenceEngine(std::shared_ptr<const TupleStore> store)
    : InferenceEngine(std::move(store), &exec::SharedPool()) {}

InferenceEngine::InferenceEngine(std::shared_ptr<const rel::Relation> relation)
    : InferenceEngine(MakeRelationStore(std::move(relation))) {}

namespace {

/// Canonical RGS labels of one tuple's code vector, written into `labels`:
/// the integer-kernel equivalent of TuplePartition — attributes grouped by
/// equal codes in first-occurrence order, every NULL (kNullCode) its own
/// singleton. Quadratic in the (small) attribute count, linear-time in
/// practice thanks to the early `assigned` skips; no sorting, no hashing of
/// Values. Returns an FNV-1a hash of the labels for the grouping map.
uint64_t CodesToRgs(const uint32_t* codes, size_t n, uint16_t* labels) {
  constexpr uint16_t kUnset = 0xFFFF;
  for (size_t i = 0; i < n; ++i) labels[i] = kUnset;
  uint16_t next = 0;
  for (size_t i = 0; i < n; ++i) {
    if (labels[i] != kUnset) continue;
    labels[i] = next;
    const uint32_t code = codes[i];
    if (code != rel::kNullCode) {
      for (size_t j = i + 1; j < n; ++j) {
        if (labels[j] == kUnset && codes[j] == code) labels[j] = next;
      }
    }
    ++next;
  }
  return util::Fnv1a64(labels, labels + n,
                       util::kFnv1a64OffsetBasis ^
                           (uint64_t{n} * 0x9e3779b97f4a7c15ull));
}

/// View key into the flat per-tuple RGS buffer, with its precomputed hash.
struct RgsKey {
  const uint16_t* labels;
  uint32_t n;
  uint64_t hash;
};
struct RgsKeyHash {
  size_t operator()(const RgsKey& key) const {
    return static_cast<size_t>(key.hash);
  }
};
struct RgsKeyEq {
  bool operator()(const RgsKey& a, const RgsKey& b) const {
    return a.hash == b.hash && a.n == b.n &&
           (a.n == 0 ||
            std::memcmp(a.labels, b.labels, a.n * sizeof(uint16_t)) == 0);
  }
};

}  // namespace

void InferenceEngine::BuildClasses(exec::ThreadPool* pool) {
  const size_t num_tuples = store_->num_tuples();
  const size_t n = store_->num_attributes();
  JIM_CHECK_LT(n, size_t{0xFFFF}) << "attribute count exceeds the RGS width";

  // Phase 1 (parallel, deterministic): per-tuple canonical RGS labels and
  // hashes, written by tuple index into flat buffers — pure integer work
  // over the store's codes, no allocation past the per-chunk code buffer.
  std::vector<uint16_t> rgs(num_tuples * n);
  std::vector<uint64_t> hashes(num_tuples);
  const size_t chunks =
      pool == nullptr ? 1 : std::max<size_t>(1, pool->threads());
  std::vector<std::vector<uint32_t>> code_buffers(
      chunks, std::vector<uint32_t>(n));
  const auto extract = [&](size_t t, size_t chunk) {
    uint32_t* codes = code_buffers[chunk].data();
    store_->TupleCodes(t, codes);
    hashes[t] = CodesToRgs(codes, n, rgs.data() + t * n);
  };
  if (pool != nullptr && pool->threads() > 1 && num_tuples > 1) {
    pool->ParallelFor(num_tuples, extract);
  } else {
    for (size_t t = 0; t < num_tuples; ++t) extract(t, 0);
  }

  // Phase 2 (serial merge): group equal label vectors; class ids are
  // assigned in first-occurrence tuple order, so the table is
  // bitwise-identical at any thread count.
  std::unordered_map<RgsKey, size_t, RgsKeyHash, RgsKeyEq> class_ids;
  auto classes = std::make_shared<std::vector<TupleClass>>();
  auto class_of_tuple = std::make_shared<std::vector<size_t>>();
  class_of_tuple->resize(num_tuples);
  std::vector<int> labels(n);
  for (size_t t = 0; t < num_tuples; ++t) {
    const uint16_t* tuple_rgs = rgs.data() + t * n;
    const RgsKey key{tuple_rgs, static_cast<uint32_t>(n), hashes[t]};
    auto [it, inserted] = class_ids.emplace(key, classes->size());
    if (inserted) {
      for (size_t a = 0; a < n; ++a) labels[a] = tuple_rgs[a];
      classes->push_back(
          TupleClass{lat::Partition::FromLabels(labels), {}});
    }
    (*classes)[it->second].tuple_indices.push_back(t);
    (*class_of_tuple)[t] = it->second;
  }

  session_ = std::make_shared<SessionArrays>();
  session_->class_status.assign(classes->size(), ClassStatus::kInformative);
  // Initially θ_P = ⊤, so K_c = ⊤ ∧ Part(c) = Part(c); every class starts on
  // the worklist.
  knowledge_ = std::make_shared<std::vector<lat::Partition>>();
  knowledge_->reserve(classes->size());
  session_->informative.reserve(classes->size());
  session_->worklist_pos.reserve(classes->size());
  for (size_t c = 0; c < classes->size(); ++c) {
    knowledge_->push_back((*classes)[c].partition);
    session_->informative.push_back(c);
    session_->worklist_pos.push_back(static_cast<uint32_t>(c));
  }
  session_->watch_pair.assign(classes->size(), kNoWatch);
  session_->pair_watchers.resize(n * n);
  classes_ = std::move(classes);
  class_of_tuple_ = std::move(class_of_tuple);
}

void InferenceEngine::InitializeWatches() {
  SessionArrays& session = *session_;
  for (size_t c : session.informative) {
    const lat::Partition& k = (*knowledge_)[c];
    size_t wi = 0;
    size_t wj = 0;
    if (!k.FirstCoBlockPair(scratch_, &wi, &wj)) {
      AttachWatch(session, c, kBottomWatch);
    } else {
      const uint32_t uncovered = UncoveredPairSlot(k);
      AttachWatch(session, c,
                  uncovered != kNoWatch
                      ? uncovered
                      : static_cast<uint32_t>(wi * k.num_elements() + wj));
    }
  }
}

uint32_t InferenceEngine::UncoveredPairSlot(const lat::Partition& k) const {
  const size_t n = k.num_elements();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (k.SameBlock(i, j) && pair_cover_[i * n + j] == 0) {
        return static_cast<uint32_t>(i * n + j);
      }
    }
  }
  return kNoWatch;
}

void InferenceEngine::AttachWatch(SessionArrays& session, size_t class_id,
                                  uint32_t slot) {
  session.watch_pair[class_id] = slot;
  if (slot == kBottomWatch) {
    session.bottom_watchers.push_back(static_cast<uint32_t>(class_id));
  } else {
    session.pair_watchers[slot].push_back(static_cast<uint32_t>(class_id));
  }
}

void InferenceEngine::RebuildPairCover() {
  state_.negatives().FillPairCover(store_->num_attributes(), pair_cover_);
}

std::vector<lat::Partition>& InferenceEngine::MutableKnowledge() {
  // use_count is exact here: a count of 1 can only race with *this* engine
  // being cloned concurrently, which is already outside the copy contract.
  if (knowledge_.use_count() != 1) {
    knowledge_ = std::make_shared<std::vector<lat::Partition>>(*knowledge_);
  } else {
    // Pair with the release-decrement of a sibling clone that just detached
    // (copied the vector and dropped the count to 1): without this fence the
    // in-place mutation below would be unordered against that copy's reads.
    std::atomic_thread_fence(std::memory_order_acquire);
  }
  return *knowledge_;
}

InferenceEngine::SessionArrays& InferenceEngine::MutableSession() {
  // Same copy-on-write protocol as MutableKnowledge.
  if (session_.use_count() != 1) {
    session_ = std::make_shared<SessionArrays>(*session_);
  } else {
    std::atomic_thread_fence(std::memory_order_acquire);
  }
  return *session_;
}

size_t InferenceEngine::Propagate() {
  const lat::Partition& theta = state_.theta_p();
  std::vector<size_t>& informative = session_->informative;
  size_t out = 0;
  size_t pruned = 0;
  for (size_t c : informative) {
    const lat::Partition& k = (*knowledge_)[c];
    if (k == theta) {
      session_->class_status[c] = ClassStatus::kForcedPositive;
      session_->worklist_pos[c] = kNoPos;
      ++pruned;
    } else if (state_.negatives().DominatedBy(k, scratch_)) {
      session_->class_status[c] = ClassStatus::kForcedNegative;
      session_->worklist_pos[c] = kNoPos;
      ++pruned;
    } else {
      session_->worklist_pos[c] = static_cast<uint32_t>(out);
      informative[out++] = c;
    }
  }
  informative.resize(out);
  JIM_COUNT(obs::kCounterEnginePropagateRuns);
  JIM_COUNT_N(obs::kCounterEnginePrunedClasses, pruned);
  JIM_OBSERVE(obs::kHistEngineWorklistSize, out);
  return pruned;
}

size_t InferenceEngine::PropagateAfterPositive() {
  const lat::Partition& theta = state_.theta_p();
  const size_t n = store_->num_attributes();
  // ApplyLabel restricted the antichain to the new θ_P — refresh the pair
  // cover before using it for exemptions below.
  RebuildPairCover();
  // The in-place cache refresh below is the one mutation of K_c anywhere in
  // the engine — detach from clone sharers first.
  std::vector<lat::Partition>& knowledge = MutableKnowledge();
  SessionArrays& session = *session_;
  std::vector<size_t>& informative = session.informative;
  size_t out = 0;
  size_t pruned = 0;
  size_t exempt = 0;
  for (size_t c : informative) {
    lat::Partition& k = knowledge[c];
    // The new θ_P refines the old, so meeting the *cached* knowledge with it
    // is the full refresh: K ∧ θ' = (θ ∧ Part(c)) ∧ θ' = θ' ∧ Part(c).
    k.MeetInto(theta, k, scratch_);
    if (k == theta) {
      session.class_status[c] = ClassStatus::kForcedPositive;
      session.worklist_pos[c] = kNoPos;
      session.watch_pair[c] = kNoWatch;
      ++pruned;
      continue;
    }
    // Watch exemption: the class's watched pair is a co-block pair of the
    // *old* K. If it survived the refresh (still co-block in the new K) and
    // no antichain member merges it, then no member can dominate the new K —
    // domination would require covering every co-block pair, this one
    // included. The kBottomWatch sentinel never exempts: a singleton K is
    // dominated by any nonempty antichain and must take the full scan.
    const uint32_t wp = session.watch_pair[c];
    const bool watch_alive =
        wp == kBottomWatch
            ? k.IsSingletons()
            : wp != kNoWatch && k.SameBlock(wp / n, wp % n);
    bool dominated;
    if (watch_alive && wp != kBottomWatch && pair_cover_[wp] == 0) {
      dominated = false;
      ++exempt;
    } else {
      dominated = state_.negatives().DominatedBy(k, scratch_);
    }
    if (dominated) {
      session.class_status[c] = ClassStatus::kForcedNegative;
      session.worklist_pos[c] = kNoPos;
      session.watch_pair[c] = kNoWatch;
      ++pruned;
      continue;
    }
    if (!watch_alive) {
      // The refresh merged/split blocks out from under the watch — re-arm on
      // a pair of the new K (uncovered preferred: it stays exempt next time).
      size_t wi = 0;
      size_t wj = 0;
      if (!k.FirstCoBlockPair(scratch_, &wi, &wj)) {
        AttachWatch(session, c, kBottomWatch);
      } else {
        const uint32_t uncovered = UncoveredPairSlot(k);
        AttachWatch(session, c,
                    uncovered != kNoWatch
                        ? uncovered
                        : static_cast<uint32_t>(wi * n + wj));
      }
    }
    session.worklist_pos[c] = static_cast<uint32_t>(out);
    informative[out++] = c;
  }
  informative.resize(out);
  JIM_COUNT_N(obs::kCounterEngineWatchExemptions, exempt);
  JIM_COUNT(obs::kCounterEnginePropagateRuns);
  JIM_COUNT_N(obs::kCounterEnginePrunedClasses, pruned);
  JIM_OBSERVE(obs::kHistEngineWorklistSize, out);
  return pruned;
}

size_t InferenceEngine::PropagateAfterNegative(
    const lat::Partition& forbidden) {
  const size_t n = store_->num_attributes();
  // ApplyLabel already inserted the forbidden zone, so the rebuilt cover is a
  // superset of pairs(F) — any uncovered pair found below is provably not in
  // F and safe to re-watch without re-waking this drain.
  RebuildPairCover();
  SessionArrays& session = *session_;
  size_t pruned = 0;
  size_t woken = 0;
  // θ_P is unchanged, so the only new reason to leave the pool is the fresh
  // forbidden zone F: a still-informative class is pruned iff K_c ≤ F. If
  // K_c ≤ F then *every* co-block pair of K_c — its watched pair included —
  // is co-block in F, so draining the watchers of F's pairs (plus the bottom
  // list: a singleton K refines everything) wakes a superset of the prunable
  // classes. Woken classes get the exact witness test; everyone else is
  // untouched.
  for (uint32_t c32 : session.bottom_watchers) {
    const size_t c = c32;
    if (session.watch_pair[c] != kBottomWatch) continue;  // stale entry
    ++woken;
    session.class_status[c] = ClassStatus::kForcedNegative;
    session.worklist_pos[c] = kNoPos;
    session.watch_pair[c] = kNoWatch;
    ++pruned;
  }
  session.bottom_watchers.clear();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (!forbidden.SameBlock(i, j)) continue;
      const uint32_t slot = static_cast<uint32_t>(i * n + j);
      std::vector<uint32_t>& watchers = session.pair_watchers[slot];
      if (watchers.empty()) continue;
      for (uint32_t c32 : watchers) {
        const size_t c = c32;
        if (session.watch_pair[c] != slot) continue;  // stale entry
        ++woken;
        const lat::Partition& k = (*knowledge_)[c];
        size_t wi = 0;
        size_t wj = 0;
        if (!k.FindNonRefinementWitness(forbidden, scratch_, &wi, &wj)) {
          session.class_status[c] = ClassStatus::kForcedNegative;
          session.worklist_pos[c] = kNoPos;
          session.watch_pair[c] = kNoWatch;
          ++pruned;
          continue;
        }
        // Survivor: re-arm on a pair provably outside F so this drain cannot
        // revisit it — the witness is co-block in K but not in F by
        // construction, and any uncovered pair is outside every member.
        const uint32_t uncovered = UncoveredPairSlot(k);
        AttachWatch(session, c,
                    uncovered != kNoWatch
                        ? uncovered
                        : static_cast<uint32_t>(wi * n + wj));
      }
      watchers.clear();
    }
  }
  if (pruned > 0) {
    std::vector<size_t>& informative = session.informative;
    size_t out = 0;
    for (size_t c : informative) {
      if (session.class_status[c] != ClassStatus::kInformative) continue;
      session.worklist_pos[c] = static_cast<uint32_t>(out);
      informative[out++] = c;
    }
    informative.resize(out);
  }
  JIM_COUNT_N(obs::kCounterEngineWatchWakes, woken);
  JIM_COUNT(obs::kCounterEnginePropagateRuns);
  JIM_COUNT_N(obs::kCounterEnginePrunedClasses, pruned);
  JIM_OBSERVE(obs::kHistEngineWorklistSize, session.informative.size());
  return pruned;
}

void InferenceEngine::RemoveFromWorklist(size_t class_id) {
  SessionArrays& session = *session_;
  std::vector<size_t>& informative = session.informative;
  const uint32_t pos = session.worklist_pos[class_id];
  JIM_CHECK(pos != kNoPos && pos < informative.size() &&
            informative[pos] == class_id)
      << "worklist position index out of sync for class " << class_id;
  informative.erase(informative.begin() + pos);
  for (size_t i = pos; i < informative.size(); ++i) {
    session.worklist_pos[informative[i]] = static_cast<uint32_t>(i);
  }
  session.worklist_pos[class_id] = kNoPos;
  session.watch_pair[class_id] = kNoWatch;
}

size_t InferenceEngine::NumInformativeTuples() const {
  size_t count = 0;
  for (size_t c : session_->informative) count += (*classes_)[c].size();
  return count;
}

bool InferenceEngine::IsDone() const { return session_->informative.empty(); }

JoinPredicate InferenceEngine::Result() const {
  return JoinPredicate(store_->schema(), state_.theta_p());
}

util::DynamicBitset InferenceEngine::CertainResultTuples() const {
  util::DynamicBitset certain(store_->num_tuples());
  for (size_t c = 0; c < classes_->size(); ++c) {
    if (IsPositive(session_->class_status[c])) {
      for (size_t t : (*classes_)[c].tuple_indices) certain.Set(t);
    }
  }
  return certain;
}

util::DynamicBitset InferenceEngine::CertainNonResultTuples() const {
  util::DynamicBitset certain(store_->num_tuples());
  for (size_t c = 0; c < classes_->size(); ++c) {
    if (session_->class_status[c] == ClassStatus::kForcedNegative ||
        session_->class_status[c] == ClassStatus::kLabeledNegative) {
      for (size_t t : (*classes_)[c].tuple_indices) certain.Set(t);
    }
  }
  return certain;
}

util::Status InferenceEngine::LabelImpl(size_t class_id, size_t tuple_index,
                                        Label label) {
  const ClassStatus before = session_->class_status[class_id];
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
    util::Status applied =
        state_.ApplyLabel((*classes_)[class_id].partition, label);
    if (!applied.ok()) {
      JIM_COUNT(obs::kCounterEngineLabelsRejected);
      return applied;
    }
  }
  JIM_COUNT(obs::kCounterEngineLabelsAccepted);
  // Only status-changing labels get here: detach the session arrays now.
  SessionArrays& session = MutableSession();
  // One JIM_COUNT site per name: the macro caches its counter in a
  // function-local static, so the name must be a per-site constant.
  if (label == Label::kPositive) {
    JIM_COUNT(obs::kCounterEngineLabelsPositive);
  } else {
    JIM_COUNT(obs::kCounterEngineLabelsNegative);
  }

  session.class_status[class_id] = label == Label::kPositive
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
  if (label == Label::kPositive) {
    PropagateAfterPositive();
  } else {
    // θ_P is unchanged by a negative label, so the labeled class's cached
    // knowledge is still exactly the antichain member ApplyLabel inserted
    // (and nothing on this path mutates knowledge_).
    PropagateAfterNegative((*knowledge_)[class_id]);
  }
  return util::OkStatus();
}

TupleStatus InferenceEngine::tuple_status(size_t tuple_index) const {
  JIM_CHECK_LT(tuple_index, store_->num_tuples());
  const ClassStatus status =
      session_->class_status[(*class_of_tuple_)[tuple_index]];
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
                                               Label label) {
  if (tuple_index >= store_->num_tuples()) {
    return util::OutOfRangeError("tuple index out of range");
  }
  const util::Status status =
      LabelImpl((*class_of_tuple_)[tuple_index], tuple_index, label);
  // Audited on rejection too: a refused label must leave the engine intact.
  JIM_AUDIT(CheckInvariants());
  return status;
}

util::Status InferenceEngine::SubmitClassLabel(size_t class_id, Label label) {
  if (class_id >= classes_->size()) {
    return util::OutOfRangeError("class id out of range");
  }
  const util::Status status =
      LabelImpl(class_id, (*classes_)[class_id].tuple_indices.front(), label);
  JIM_AUDIT(CheckInvariants());
  return status;
}

InferenceEngine::LabelImpact InferenceEngine::SimulateLabel(
    size_t class_id, Label label) const {
  // The naive reference implementation (full state copy + rescan); the hot
  // paths use SimulateLabelBoth, and the parity tests pin the two together.
  JIM_CHECK_LT(class_id, classes_->size());
  JIM_CHECK(session_->class_status[class_id] == ClassStatus::kInformative);
  InferenceState hypothetical = state_;
  // An informative class accepts either label by definition.
  JIM_CHECK_OK(hypothetical.ApplyLabel((*classes_)[class_id].partition, label));

  LabelImpact impact;
  impact.pruned_classes = 1;
  impact.pruned_tuples = (*classes_)[class_id].size();
  for (size_t c = 0; c < classes_->size(); ++c) {
    if (c == class_id ||
        session_->class_status[c] != ClassStatus::kInformative) {
      continue;
    }
    if (hypothetical.Classify((*classes_)[c].partition) !=
        TupleClassification::kInformative) {
      ++impact.pruned_classes;
      impact.pruned_tuples += (*classes_)[c].size();
    }
  }
  return impact;
}

InferenceEngine::LabelImpactPair InferenceEngine::SimulateLabelBoth(
    size_t class_id) const {
  return SimulateLabelBothWith(class_id, meet_tmp_, scratch_);
}

InferenceEngine::LabelImpactPair InferenceEngine::SimulateLabelBothWith(
    size_t class_id, lat::Partition& meet_tmp,
    lat::PartitionScratch& scratch) const {
  JIM_COUNT(obs::kCounterEngineSimulateLabelBoth);
  JIM_CHECK_LT(class_id, classes_->size());
  JIM_CHECK(session_->class_status[class_id] == ClassStatus::kInformative);
  const lat::Partition& k_labeled = (*knowledge_)[class_id];

  LabelImpactPair impact;
  impact.positive.pruned_classes = impact.negative.pruned_classes = 1;
  impact.positive.pruned_tuples = impact.negative.pruned_tuples =
      (*classes_)[class_id].size();
  for (size_t c : session_->informative) {
    if (c == class_id) continue;
    const lat::Partition& k = (*knowledge_)[c];
    const size_t members = (*classes_)[c].size();
    // Negative answer: the forbidden zone grows by exactly k_labeled, so the
    // class is pruned iff its knowledge falls inside it.
    if (k.RefinesWith(k_labeled, scratch)) {
      ++impact.negative.pruned_classes;
      impact.negative.pruned_tuples += members;
    }
    // Positive answer: the hypothetical θ_P is k_labeled, and the class's
    // hypothetical knowledge is k_labeled ∧ k (meeting cached knowledge is
    // enough — both already lie below the current θ_P).
    if (k_labeled.RefinesWith(k, scratch)) {
      // k_labeled ∧ k == k_labeled: forced positive.
      ++impact.positive.pruned_classes;
      impact.positive.pruned_tuples += members;
    } else {
      k_labeled.MeetInto(k, meet_tmp, scratch);
      // Testing against the *current* antichain is exact: restricting it to
      // the new θ_P never changes domination of partitions below that θ_P.
      if (state_.negatives().DominatedBy(meet_tmp, scratch)) {
        ++impact.positive.pruned_classes;
        impact.positive.pruned_tuples += members;
      }
    }
  }
  return impact;
}

void InferenceEngine::PrepareLookaheadBounds(
    LookaheadBoundsCache& cache) const {
  const size_t n = store_->num_attributes();
  const std::vector<size_t>& informative = session_->informative;
  // Histogram of worklist tuple mass by rank(K_c), then prefix/suffix in
  // place. rank = n − #blocks ∈ [0, n).
  cache.tuples_rank_le.assign(n, 0);
  cache.tuples_rank_ge.assign(n, 0);
  for (size_t c : informative) {
    cache.tuples_rank_le[(*knowledge_)[c].Rank()] += (*classes_)[c].size();
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
    suffix += (*classes_)[informative[i]].size();
    cache.suffix_tuples[i] = suffix;
  }
  cache.antichain_empty = state_.negatives().members().empty();
}

bool InferenceEngine::SimulateLabelBothBounded(
    size_t class_id, lat::Partition& meet_tmp, lat::PartitionScratch& scratch,
    const LookaheadBoundsCache& bounds, const AggregateBoundFn& objective,
    double threshold, LabelImpactPair* impact, double* skip_bound) const {
  JIM_CHECK_LT(class_id, classes_->size());
  JIM_CHECK(session_->class_status[class_id] == ClassStatus::kInformative);
  const size_t pos_cap = LookaheadPosCap(bounds, class_id);
  const size_t neg_cap = LookaheadNegCap(bounds, class_id);
  {
    // O(1) precheck: can the candidate beat the threshold at all?
    const double bound = objective.UpperBound(pos_cap, neg_cap);
    if (bound < threshold) {
      *skip_bound = bound;
      JIM_COUNT(obs::kCounterEngineCutoffSkips);
      return false;
    }
  }
  const lat::Partition& k_labeled = (*knowledge_)[class_id];
  const std::vector<size_t>& informative = session_->informative;

  LabelImpactPair result;
  result.positive.pruned_classes = result.negative.pruned_classes = 1;
  result.positive.pruned_tuples = result.negative.pruned_tuples =
      (*classes_)[class_id].size();
  for (size_t i = 0; i < informative.size(); ++i) {
    if ((i & 63u) == 63u) {
      // In-scan abort: counts so far plus the remaining worklist tuple mass
      // (still capped) bound anything this candidate can reach. The suffix
      // may re-count the candidate's own class — harmless, bounds only widen.
      const size_t rem = bounds.suffix_tuples[i];
      const double bound = objective.UpperBound(
          std::min(result.positive.pruned_tuples + rem, pos_cap),
          std::min(result.negative.pruned_tuples + rem, neg_cap));
      if (bound < threshold) {
        *skip_bound = bound;
        JIM_COUNT(obs::kCounterEngineCutoffAborts);
        return false;
      }
    }
    const size_t c = informative[i];
    if (c == class_id) continue;
    const lat::Partition& k = (*knowledge_)[c];
    const size_t members = (*classes_)[c].size();
    // Identical arithmetic to SimulateLabelBothWith — a fully evaluated
    // candidate's impact pair is bitwise the same.
    if (k.RefinesWith(k_labeled, scratch)) {
      ++result.negative.pruned_classes;
      result.negative.pruned_tuples += members;
    }
    if (k_labeled.RefinesWith(k, scratch)) {
      ++result.positive.pruned_classes;
      result.positive.pruned_tuples += members;
    } else {
      k_labeled.MeetInto(k, meet_tmp, scratch);
      if (state_.negatives().DominatedBy(meet_tmp, scratch)) {
        ++result.positive.pruned_classes;
        result.positive.pruned_tuples += members;
      }
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

  // COW holders attached and sized for this instance.
  JIM_CHECK(store_ != nullptr && classes_ != nullptr &&
            class_of_tuple_ != nullptr && session_ != nullptr &&
            knowledge_ != nullptr);
  const size_t num_tuples = store_->num_tuples();
  const size_t num_classes = classes_->size();
  JIM_CHECK_EQ(class_of_tuple_->size(), num_tuples);
  JIM_CHECK_EQ(session_->class_status.size(), num_classes);
  JIM_CHECK_EQ(knowledge_->size(), num_classes);

  // Classes partition the tuple set, in agreement with class_of_tuple_.
  size_t members_total = 0;
  for (size_t c = 0; c < num_classes; ++c) {
    const TupleClass& tuple_class = (*classes_)[c];
    tuple_class.partition.CheckInvariants();
    JIM_CHECK_EQ(tuple_class.partition.num_elements(),
                 store_->num_attributes());
    JIM_CHECK(!tuple_class.tuple_indices.empty()) << "empty class " << c;
    members_total += tuple_class.size();
    for (size_t t : tuple_class.tuple_indices) {
      JIM_CHECK_LT(t, num_tuples);
      JIM_CHECK_EQ((*class_of_tuple_)[t], c)
          << "tuple " << t << " listed in class " << c
          << " but mapped elsewhere";
    }
  }
  JIM_CHECK_EQ(members_total, num_tuples)
      << "classes do not partition the tuple set";

  // Worklist = ascending ids of exactly the kInformative classes.
  const std::vector<size_t>& informative = session_->informative;
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
        session_->class_status[c] == ClassStatus::kInformative;
    JIM_CHECK_EQ(on_worklist, is_informative)
        << "worklist/status disagreement on class " << c << " ("
        << ClassStatusToString(session_->class_status[c]) << ")";
    if (is_informative) ++informative_count;
  }
  JIM_CHECK_EQ(informative_count, informative.size());

  // Position index mirrors the worklist exactly; off-pool classes carry the
  // sentinels.
  const size_t n = store_->num_attributes();
  JIM_CHECK_EQ(session_->worklist_pos.size(), num_classes);
  JIM_CHECK_EQ(session_->watch_pair.size(), num_classes);
  JIM_CHECK_EQ(session_->pair_watchers.size(), n * n);
  for (size_t i = 0; i < informative.size(); ++i) {
    JIM_CHECK_EQ(session_->worklist_pos[informative[i]],
                 static_cast<uint32_t>(i))
        << "worklist_pos out of sync at position " << i;
  }
  for (size_t c = 0; c < num_classes; ++c) {
    const uint32_t wp = session_->watch_pair[c];
    if (session_->class_status[c] != ClassStatus::kInformative) {
      JIM_CHECK_EQ(session_->worklist_pos[c], kNoPos)
          << "off-pool class " << c << " still has a worklist position";
      JIM_CHECK_EQ(wp, kNoWatch)
          << "off-pool class " << c << " still holds a watch";
      continue;
    }
    const lat::Partition& k = (*knowledge_)[c];
    const uint32_t c32 = static_cast<uint32_t>(c);
    if (wp == kBottomWatch) {
      JIM_CHECK(k.IsSingletons())
          << "class " << c << " on the bottom list with non-singleton K";
      JIM_CHECK(std::find(session_->bottom_watchers.begin(),
                          session_->bottom_watchers.end(),
                          c32) != session_->bottom_watchers.end())
          << "class " << c << " bottom watch not registered";
    } else {
      JIM_CHECK(wp != kNoWatch) << "informative class " << c << " unwatched";
      const size_t wi = wp / n;
      const size_t wj = wp % n;
      JIM_CHECK(wi < wj && wj < n) << "malformed watch slot " << wp;
      JIM_CHECK(k.SameBlock(wi, wj))
          << "class " << c << " watches (" << wi << "," << wj
          << ") which is not co-block in its knowledge";
      const std::vector<uint32_t>& watchers = session_->pair_watchers[wp];
      JIM_CHECK(std::find(watchers.begin(), watchers.end(), c32) !=
                watchers.end())
          << "class " << c << " watch not registered on slot " << wp;
    }
  }
  // The pair cover is exactly the current antichain's co-block pairs.
  {
    std::vector<uint8_t> expected;
    state_.negatives().FillPairCover(n, expected);
    JIM_CHECK(expected == pair_cover_) << "pair cover stale";
  }

  // Per-class: cached knowledge fresh for informative classes, and every
  // non-explicit status reproducible from a from-scratch classification.
  for (size_t c = 0; c < num_classes; ++c) {
    const lat::Partition& part = (*classes_)[c].partition;
    switch (session_->class_status[c]) {
      case ClassStatus::kInformative:
        JIM_CHECK((*knowledge_)[c] == state_.theta_p().Meet(part))
            << "stale knowledge cache K_" << c;
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
  stats.num_classes = classes_->size();
  stats.interactions = history_.size();
  stats.wasted_interactions = wasted_interactions_;
  for (size_t c = 0; c < classes_->size(); ++c) {
    const size_t members = (*classes_)[c].size();
    switch (session_->class_status[c]) {
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
