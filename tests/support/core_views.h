#ifndef JIM_TESTS_SUPPORT_CORE_VIEWS_H_
#define JIM_TESTS_SUPPORT_CORE_VIEWS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/inference_state.h"
#include "core/session.h"
#include "lattice/partition.h"
#include "util/bitset.h"
#include "util/status.h"

namespace jim::core {

/// Partition-level views of an InferenceState, the independent references
/// the tests check the pair-mask kernels against. Built on the state's
/// public API only.

/// InferenceState::ApplyLabel with Part(t) given as a partition.
util::Status ApplyLabel(InferenceState& state,
                        const lat::Partition& tuple_partition, Label label);

/// True iff `candidate` is consistent with every label `state` holds.
bool IsConsistent(const InferenceState& state,
                  const lat::Partition& candidate);

/// The forbidden members, decoded, in canonical order.
std::vector<lat::Partition> Forbidden(const InferenceState& state);

/// Human-readable canonical rendering: θ_P, then the forbidden members.
std::string CanonicalKey(const InferenceState& state);

/// Knowledge K_c = θ_P ∧ Part(c) of an informative class, decoded from the
/// engine's cached row (InferenceEngine::KnowledgeRow).
lat::Partition ClassKnowledge(const InferenceEngine& engine, size_t class_id);

/// Tuples certain to belong to the final join result (their class is
/// labeled or forced positive). Monotone as labels arrive.
util::DynamicBitset CertainResultTuples(const InferenceEngine& engine);

/// Tuples certain to be excluded from the final join result.
util::DynamicBitset CertainNonResultTuples(const InferenceEngine& engine);

/// A session trace as compact JSON: interactions, per-step asked
/// tuple/label/pruning/latency, the inferred predicate, and the
/// identification verdict. The parity suites diff these strings.
std::string SessionResultToJson(const SessionResult& result);

}  // namespace jim::core

#endif  // JIM_TESTS_SUPPORT_CORE_VIEWS_H_
