#ifndef JIM_QUERY_UNIVERSAL_TABLE_H_
#define JIM_QUERY_UNIVERSAL_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/join_predicate.h"
#include "core/tuple_store.h"
#include "query/join_query.h"
#include "relational/catalog.h"
#include "relational/relation.h"
#include "util/rng.h"
#include "util/status.h"

namespace jim::query {

/// Options for building a universal table.
struct UniversalTableOptions {
  /// Cap on the candidate-tuple count. When the full cross product of the
  /// involved relations exceeds this, a uniform sample of row-id draws is
  /// taken instead (the inference is then exact w.r.t. the sample — see
  /// README, "Architecture: the tuple data path"). 0 means no cap.
  size_t sample_cap = 100'000;
  /// Seed for the sampling RNG.
  uint64_t seed = 99;
};

/// The denormalized instance JIM works on when the user brings several
/// relations with no known integrity constraints: the (possibly sampled)
/// cross product of the involved relations, with per-attribute provenance so
/// an inferred predicate can be translated back into a multi-relation
/// JoinQuery / GAV mapping.
///
/// The table is *factorized*: candidate tuples are never materialized as
/// Value rows. Within the cap, a candidate tuple is just a mixed-radix row
/// id over the source relations' dictionary-encoded columns (peak memory
/// O(Σ|Rᵢ|·nᵢ) — independent of the candidate-tuple count); above the cap,
/// the sample is a matrix of row-id draws (O(N·k) ints for k relations).
/// Either way the engine consumes it through the core::TupleStore seam as
/// integer codes, and Values are decoded on demand for display/provenance.
/// Candidate-tuple order, sampling draws, and dedup semantics are exactly
/// those of the historical materializing builder (the parity suite pins
/// this), so session transcripts are byte-identical to the legacy path.
///
/// This implements the paper's "handles a varying number of involved
/// relations": any subset of the catalog can participate, including the same
/// relation twice (self-joins).
class UniversalTable {
 public:
  /// Where a universal-table attribute came from.
  struct Provenance {
    /// Index into the `relation_names` list passed to Build.
    size_t relation_occurrence = 0;
    size_t column_index = 0;
  };

  /// Builds the table over `relation_names` (resolved in `catalog`; a name
  /// may repeat for self-joins). Attribute qualifiers in the result schema
  /// are the occurrence aliases ("Flights", or "Flights_1"/"Flights_2").
  static util::StatusOr<UniversalTable> Build(
      const rel::Catalog& catalog,
      const std::vector<std::string>& relation_names,
      const UniversalTableOptions& options = {});

  /// The candidate-tuple instance as the engine consumes it.
  const std::shared_ptr<const core::TupleStore>& store() const {
    return store_;
  }

  const rel::Schema& schema() const { return store_->schema(); }
  size_t num_tuples() const { return store_->num_tuples(); }

  size_t num_attributes() const { return provenance_.size(); }

  /// Whether the instance is a sample (true when the full product exceeded
  /// the cap).
  bool is_sampled() const { return is_sampled_; }
  /// Size of the un-sampled cross product.
  size_t full_product_size() const { return full_product_size_; }

  /// Translates a predicate inferred over this table back into a
  /// multi-relation join query: each equality between attributes of
  /// different occurrences becomes a join condition; equalities within one
  /// occurrence become intra-relation selections (also representable).
  JoinQuery ToJoinQuery(const core::JoinPredicate& predicate) const;

 private:
  UniversalTable() = default;

  std::shared_ptr<const core::TupleStore> store_;
  std::vector<Provenance> provenance_;
  std::vector<std::string> relation_names_;
  bool is_sampled_ = false;
  size_t full_product_size_ = 0;
};

}  // namespace jim::query

#endif  // JIM_QUERY_UNIVERSAL_TABLE_H_
