#ifndef JIM_CORE_SPECULATION_H_
#define JIM_CORE_SPECULATION_H_

#include <cstdint>
#include <vector>

#include "core/engine.h"
#include "core/inference_state.h"
#include "lattice/partition.h"

namespace jim::core {

/// A trail-backed speculative labeling session over a built engine: apply
/// hypothetical labels, explore, and undo in O(changed) instead of copying
/// engine or worklist state per tree node. This is the substrate of the
/// minimax (optimal-strategy) search, which previously rebuilt its live
/// candidate set by classifying *every* engine class at *every* node and
/// copied a full InferenceState per answer branch.
///
/// Design:
///   - the inference state is a private copy of the engine's, mutated by
///     ApplyLabel; each Apply parks the pre-label state in a pooled frame
///     (vector assignment into warmed capacity — no steady-state allocation)
///     and Undo swaps it back in O(1) (InferenceState::Swap);
///   - the live candidate set (classes informative under the speculative
///     state) is a doubly-linked list threaded through two flat arrays with a
///     sentinel, dancing-links style: removal unlinks a node but leaves its
///     own pointers intact, and restoring the frame's removals in exact
///     reverse order re-links every node with two stores — so Undo costs
///     O(#classes removed by that Apply), nothing else;
///   - propagation after an Apply is a single walk of the (already shrunken)
///     live list using the allocation-free InferenceState::ClassifyWith; no
///     per-class knowledge is cached, so there is nothing else to undo.
///
/// The live list preserves ascending class-id order across any Apply/Undo
/// sequence (removals keep order; reverse-order restore is exact), so
/// searches iterating it visit candidates in the same order the engine's
/// worklist would — minimax values and tie-breaks are unaffected.
///
/// Not thread-safe; one session per search.
class SpeculativeSession {
 public:
  /// Starts at the engine's current state: the live list is exactly the
  /// engine's informative worklist. The engine must outlive the session and
  /// must not be labeled while the session is in use (the session holds no
  /// lock; it snapshots the state and worklist at construction).
  explicit SpeculativeSession(const InferenceEngine& engine);

  const InferenceState& state() const { return state_; }
  /// Number of speculative labels currently applied (trail depth).
  size_t depth() const { return depth_; }
  size_t num_live() const { return num_live_; }

  /// Live-list iteration: FirstLive() .. NextLive(c) until LiveEnd(), in
  /// ascending class-id order. The list may be mutated (Apply) and restored
  /// (Undo) *between* NextLive calls — dancing-links restore makes that safe
  /// as long as every Apply in between has been undone.
  size_t FirstLive() const { return next_[sentinel_]; }
  size_t NextLive(size_t class_id) const { return next_[class_id]; }
  size_t LiveEnd() const { return sentinel_; }
  bool IsLive(size_t class_id) const {
    return next_[prev_[class_id]] == class_id;
  }
  /// Materialized ascending live ids (tests / non-hot paths).
  std::vector<size_t> LiveClasses() const;

  /// Applies a speculative label to a live class and propagates: the class
  /// itself and every live class the new state classifies as uninformative
  /// leave the live list; the removals are recorded on the trail. The label
  /// must be consistent (a live class accepts either answer by definition).
  void Apply(size_t class_id, Label label);

  /// Reverts the most recent Apply: restores the removed classes in exact
  /// reverse removal order and swaps the pre-label state back. O(removed).
  void Undo();

  /// Audit: the live list is a consistent ascending cycle through the
  /// sentinel, agrees with num_live(), and matches a from-scratch
  /// classification of the engine's informative classes under state().
  void CheckInvariants() const;

 private:
  void Unlink(size_t class_id) {
    next_[prev_[class_id]] = next_[class_id];
    prev_[next_[class_id]] = prev_[class_id];
    --num_live_;
  }
  void Relink(size_t class_id) {
    const uint32_t c = static_cast<uint32_t>(class_id);
    next_[prev_[class_id]] = c;
    prev_[next_[class_id]] = c;
    ++num_live_;
  }

  struct Frame {
    InferenceState saved;
    std::vector<uint32_t> removed;  ///< in removal order
  };

  const InferenceEngine& engine_;
  InferenceState state_;
  size_t sentinel_;
  std::vector<uint32_t> next_;
  std::vector<uint32_t> prev_;
  size_t num_live_ = 0;
  std::vector<Frame> frames_;  ///< pooled; frames_[0..depth_) are active
  size_t depth_ = 0;
  // Scratch for the allocation-free classify/meet kernels.
  lat::PartitionScratch scratch_;
  lat::Partition meet_tmp_;
};

}  // namespace jim::core

#endif  // JIM_CORE_SPECULATION_H_
