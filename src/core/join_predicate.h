#ifndef JIM_CORE_JOIN_PREDICATE_H_
#define JIM_CORE_JOIN_PREDICATE_H_

#include <string>
#include <string_view>
#include <vector>

#include "core/tuple_store.h"
#include "lattice/partition.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "util/bitset.h"
#include "util/status.h"

namespace jim::core {

/// An n-ary equi-join predicate over the attributes of a schema.
///
/// Canonically a partition of the attribute set: attributes in the same
/// block are constrained to be pairwise equal. This captures arbitrary
/// conjunctive equality predicates — e.g. the paper's
///   Q1 = (To ≈ City)                 — partition {From|To,City|Airline|Discount}
///   Q2 = (To ≈ City ∧ Airline ≈ Discount)
/// A tuple t is *selected* iff its induced value partition coarsens the
/// predicate's partition: Selects(t) ⇔ partition() ≤ Part(t).
class JoinPredicate {
 public:
  JoinPredicate(rel::Schema schema, lat::Partition partition);

  /// Parses "To=City && Airline=Discount" (also accepts "AND", "and", "∧",
  /// "&" and "≈" for "="; whitespace-insensitive). Attribute names may be
  /// bare or qualified. An empty string yields the empty predicate.
  static util::StatusOr<JoinPredicate> Parse(const rel::Schema& schema,
                                             std::string_view text);

  const rel::Schema& schema() const { return schema_; }
  const lat::Partition& partition() const { return partition_; }

  size_t num_attributes() const { return partition_.num_elements(); }

  /// Number of equality constraints (lattice rank of the partition).
  size_t NumConstraints() const { return partition_.Rank(); }

  bool IsEmptyPredicate() const { return partition_.IsSingletons(); }

  /// True iff `tuple` satisfies every equality (strict Value equality;
  /// NULLs never satisfy an equality).
  bool Selects(const rel::Tuple& tuple) const;

  /// Code-level Selects: `codes` are num_attributes() shared-dictionary
  /// codes of one tuple (see TupleStore). Identical to Selects on the
  /// decoded tuple — code equality is strict value equality and
  /// rel::kNullCode never matches — without materializing a Value.
  bool SelectsCodes(const uint32_t* codes) const;

  /// Bitset over `relation`'s rows: bit i set iff row i is selected.
  /// Requires the relation arity to match.
  util::DynamicBitset SelectedRows(const rel::Relation& relation) const;

  /// Same over a TupleStore, evaluated on integer codes (no decoding).
  util::DynamicBitset SelectedRows(const TupleStore& store) const;

  /// Containment: every tuple selected by *this is selected by `other`
  /// (on every possible instance). Holds iff other.partition ≤ this.partition.
  bool ContainedIn(const JoinPredicate& other) const;

  /// "To≈City ∧ Airline≈Discount" (generator pairs, attribute names);
  /// "(empty predicate)" when unconstrained.
  std::string ToString() const;

  /// SQL WHERE-clause rendering: "To = City AND Airline = Discount";
  /// "TRUE" when unconstrained.
  std::string ToSqlWhere() const;

  friend bool operator==(const JoinPredicate& a, const JoinPredicate& b) {
    return a.partition_ == b.partition_;
  }

 private:
  rel::Schema schema_;
  lat::Partition partition_;
};

/// True iff p1 and p2 select exactly the same rows of `relation`
/// ("instance-equivalence" in the paper; the inference goal is identification
/// up to this relation).
bool InstanceEquivalent(const rel::Relation& relation, const JoinPredicate& p1,
                        const JoinPredicate& p2);

/// Same over a TupleStore (code-level evaluation, no decoding).
bool InstanceEquivalent(const TupleStore& store, const JoinPredicate& p1,
                        const JoinPredicate& p2);

}  // namespace jim::core

#endif  // JIM_CORE_JOIN_PREDICATE_H_
