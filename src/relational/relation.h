#ifndef JIM_RELATIONAL_RELATION_H_
#define JIM_RELATIONAL_RELATION_H_

#include <string>
#include <vector>

#include "relational/schema.h"
#include "relational/value.h"
#include "util/status.h"

namespace jim::rel {

/// One row: values positionally aligned with a Schema.
using Tuple = std::vector<Value>;

/// Representation-level key of a tuple: two tuples get equal keys iff they
/// render identically field by field (same types, same printed payloads —
/// NULLs *are* equal here, unlike join semantics). This is the equality the
/// universal-table builder deduplicates candidate tuples by.
std::string TupleRepresentationKey(const Tuple& tuple);

/// An in-memory table: a name, a schema, and rows.
///
/// This is the storage substrate for JIM. The demo paper's system sits on a
/// live database; here the catalog is CSV/in-memory, which is equivalent for
/// the inference algorithm (it only consumes tuples).
class Relation {
 public:
  Relation() = default;
  Relation(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const Schema& schema() const { return schema_; }

  size_t num_rows() const { return rows_.size(); }
  size_t num_attributes() const { return schema_.num_attributes(); }

  const Tuple& row(size_t i) const { return rows_[i]; }
  const std::vector<Tuple>& rows() const { return rows_; }

  /// Appends a row after checking arity and per-column type (NULL is allowed
  /// in any column).
  util::Status AddRow(Tuple row);

  /// Appends without validation — for operators that construct rows from
  /// already-validated inputs.
  void AddRowUnchecked(Tuple row) { rows_.push_back(std::move(row)); }

  void Reserve(size_t n) { rows_.reserve(n); }

  /// Renders the first `max_rows` rows as an aligned ASCII table.
  std::string ToString(size_t max_rows = 50) const;

 private:
  std::string name_;
  Schema schema_;
  std::vector<Tuple> rows_;
};

}  // namespace jim::rel

#endif  // JIM_RELATIONAL_RELATION_H_
