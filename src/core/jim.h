#ifndef JIM_CORE_JIM_H_
#define JIM_CORE_JIM_H_

/// Umbrella header for the JIM public API.
///
/// Typical use (see examples/quickstart.cpp):
///
///   auto relation = std::make_shared<rel::Relation>(...);   // the instance
///   // Encode once, build classes on integer codes (a factorized
///   // query::UniversalTable store plugs in the same way).
///   core::InferenceEngine engine(core::MakeRelationStore(relation));
///   auto strategy = core::MakeStrategy("lookahead-entropy").value();
///   while (!engine.IsDone()) {
///     size_t cls = strategy->PickClass(engine);
///     size_t tuple = engine.tuple_class(cls).tuple_indices[0];
///     core::Label answer = AskTheUser(relation->row(tuple));
///     JIM_CHECK_OK(engine.SubmitClassLabel(cls, answer));
///   }
///   core::JoinPredicate inferred = engine.Result();

#include "core/engine.h"         // IWYU pragma: export
#include "core/example.h"        // IWYU pragma: export
#include "core/inference_state.h"// IWYU pragma: export
#include "core/join_predicate.h" // IWYU pragma: export
#include "core/oracle.h"         // IWYU pragma: export
#include "core/session.h"        // IWYU pragma: export
#include "core/strategies.h"     // IWYU pragma: export
#include "core/tuple_store.h"    // IWYU pragma: export

#endif  // JIM_CORE_JIM_H_
