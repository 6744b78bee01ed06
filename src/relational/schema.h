#ifndef JIM_RELATIONAL_SCHEMA_H_
#define JIM_RELATIONAL_SCHEMA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "relational/value.h"
#include "util/status.h"

namespace jim::rel {

/// One column: a name, an optional relation qualifier (set when schemas are
/// concatenated into a universal table, so "Hotels.City" and "Flights.City"
/// stay distinguishable), and a type.
struct Attribute {
  std::string name;
  ValueType type = ValueType::kString;
  /// Originating relation, empty for unqualified attributes.
  std::string qualifier;

  /// "City" or "Hotels.City".
  std::string QualifiedName() const {
    return qualifier.empty() ? name : qualifier + "." + name;
  }
};

/// An ordered list of attributes. Lookup accepts either the bare name (when
/// unambiguous) or the qualified "Relation.name" form.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Attribute> attributes)
      : attributes_(std::move(attributes)) {}

  /// Convenience: untyped (STRING) attributes from names.
  static Schema FromNames(const std::vector<std::string>& names);

  size_t num_attributes() const { return attributes_.size(); }
  const Attribute& attribute(size_t i) const { return attributes_[i]; }
  const std::vector<Attribute>& attributes() const { return attributes_; }

  void AddAttribute(Attribute attribute) {
    attributes_.push_back(std::move(attribute));
  }

  /// Index of the attribute named `name` (bare or qualified). Errors if the
  /// name is unknown or ambiguous.
  util::StatusOr<size_t> IndexOf(std::string_view name) const;

  /// All attribute names, qualified where a qualifier is present.
  std::vector<std::string> Names() const;

  /// Schema for `left` ++ `right` with the given qualifiers applied to each
  /// side (pass "" to keep existing qualifiers).
  static Schema Concat(const Schema& left, std::string_view left_qualifier,
                       const Schema& right, std::string_view right_qualifier);

  std::string ToString() const;

 private:
  std::vector<Attribute> attributes_;
};

}  // namespace jim::rel

#endif  // JIM_RELATIONAL_SCHEMA_H_
