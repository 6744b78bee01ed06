#ifndef JIM_WORKLOAD_TRAVEL_H_
#define JIM_WORKLOAD_TRAVEL_H_

#include <memory>

#include "core/tuple_store.h"
#include "relational/catalog.h"
#include "relational/relation.h"
#include "util/rng.h"

namespace jim::workload {

/// The motivating example of the paper, verbatim: the denormalized
/// flight&hotel table of Figure 1 — 12 tuples over
/// (From, To, Airline, City, Discount). Tuple (k) of the figure is row k-1.
rel::Relation Figure1Instance();

/// Figure 1 as a shared relation, ready for an InferenceEngine.
std::shared_ptr<const rel::Relation> Figure1InstancePtr();

/// Figure 1 behind the TupleStore seam (encoded once).
std::shared_ptr<const core::TupleStore> Figure1StorePtr();

/// The two goal queries discussed in the paper:
///   Q1:  To ≈ City
///   Q2:  To ≈ City ∧ Airline ≈ Discount
/// as predicate strings parseable by JoinPredicate::Parse.
inline constexpr const char* kQ1 = "To=City";
inline constexpr const char* kQ2 = "To=City && Airline=Discount";

/// The separate source relations behind Figure 1: Flights(From, To, Airline)
/// and Hotels(City, Discount) — 4 flights × 3 hotels whose cross product is
/// exactly the Figure 1 instance. Used by the schema-mapping example to show
/// JIM inferring a GAV mapping across relations.
rel::Catalog TravelCatalog();

/// A scaled-up travel scenario: `num_flights` flights over `num_cities`
/// cities and `num_airlines` airlines, and `num_hotels` hotels (discounts
/// name airlines, as in the paper), as separate Flights/Hotels relations in
/// a catalog — the input of the factorized universal-table ingest path,
/// whose memory stays O(num_flights + num_hotels) while the candidate count
/// is the full num_flights × num_hotels product (bench_scalability's
/// above-the-cap sweep builds on this).
rel::Catalog LargeTravelCatalog(size_t num_flights, size_t num_hotels,
                                size_t num_cities, size_t num_airlines,
                                util::Rng& rng);

}  // namespace jim::workload

#endif  // JIM_WORKLOAD_TRAVEL_H_
