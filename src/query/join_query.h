#ifndef JIM_QUERY_JOIN_QUERY_H_
#define JIM_QUERY_JOIN_QUERY_H_

#include <string>
#include <utility>
#include <vector>

#include "relational/catalog.h"
#include "relational/relation.h"
#include "util/status.h"

namespace jim::query {

/// A column of one of the query's relations.
struct QualifiedColumn {
  /// Index into the query's relations.
  size_t relation_index = 0;
  /// Column index within that relation.
  size_t column_index = 0;
};

/// An equality condition between two columns.
using ColumnEquality = std::pair<QualifiedColumn, QualifiedColumn>;

/// A multi-relation n-ary equi-join query:
///
///   SELECT * FROM R1, R2, ... WHERE Ri.a = Rj.b AND ...
///
/// This is what JIM hands back when inference ran over a universal table
/// built from several relations — equivalently, a simple GAV schema mapping
/// (paper §1: "our join queries can be eventually seen as simple GAV
/// mappings").
class JoinQuery {
 public:
  JoinQuery() = default;
  explicit JoinQuery(std::vector<std::string> relations)
      : relations_(std::move(relations)) {}

  void AddEquality(QualifiedColumn a, QualifiedColumn b) {
    equalities_.emplace_back(a, b);
  }

  /// SQL rendering against `catalog` (for column names):
  ///   SELECT * FROM Flights, Hotels WHERE Flights.To = Hotels.City
  /// Relations appearing more than once get aliases R_0, R_1, ....
  util::StatusOr<std::string> ToSql(const rel::Catalog& catalog) const;

  /// Evaluates the query: joins the relations left to right, using hash
  /// joins on the equalities that connect the next relation to the part
  /// already joined, and filters any remaining equalities at the end.
  /// The output schema qualifies every attribute with its relation (alias).
  util::StatusOr<rel::Relation> Evaluate(const rel::Catalog& catalog) const;

 private:
  /// Alias for relation occurrence `i` ("Flights", or "Flights_2" when the
  /// same relation appears multiple times).
  std::string AliasFor(size_t relation_index) const;

  std::vector<std::string> relations_;
  std::vector<ColumnEquality> equalities_;
};

}  // namespace jim::query

#endif  // JIM_QUERY_JOIN_QUERY_H_
