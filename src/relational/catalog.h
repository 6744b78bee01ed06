#ifndef JIM_RELATIONAL_CATALOG_H_
#define JIM_RELATIONAL_CATALOG_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "relational/dictionary.h"
#include "relational/relation.h"
#include "util/status.h"

namespace jim::rel {

/// A named collection of relations — JIM's stand-in for a database. Supports
/// the demo's "varying number of involved relations": the universal-table
/// builder (src/query) pulls any subset of catalog relations into one
/// denormalized instance.
///
/// Relations are immutable once registered and held behind shared_ptr, so
/// consumers (universal tables, tuple stores) can keep a relation alive past
/// the catalog's lifetime without copying its rows. Each relation's
/// dictionary-encoded mirror is built lazily, once, on first GetEncoded —
/// this is the "encode at catalog time" half of the columnar ingest path.
class Catalog {
 public:
  Catalog() = default;
  /// Copies share the (immutable) relations and whatever encodings the
  /// source had cached so far; the cache mutex itself is per-instance.
  Catalog(const Catalog& other);
  Catalog& operator=(const Catalog& other);

  /// Registers `relation` under its name. Errors on duplicates.
  util::Status Add(Relation relation);

  /// Borrowed pointer, valid until the name is Dropped.
  util::StatusOr<const Relation*> Get(const std::string& name) const;

  /// Shared handle to the relation (no row copy; safe to outlive *this).
  util::StatusOr<std::shared_ptr<const Relation>> GetShared(
      const std::string& name) const;

  /// The relation's columnar dictionary-encoded mirror, built on first use
  /// and cached (shared by every universal table it participates in). The
  /// cache fill is mutex-guarded, so any number of threads may build
  /// universal tables over one catalog concurrently — only catalog
  /// *mutations* (Add/Drop) require external synchronization,
  /// like any container.
  util::StatusOr<std::shared_ptr<const EncodedRelation>> GetEncoded(
      const std::string& name) const;

  bool Contains(const std::string& name) const {
    return relations_.count(name) > 0;
  }

  util::Status Drop(const std::string& name);

  /// Names in lexicographic order.
  std::vector<std::string> Names() const;

  size_t size() const { return relations_.size(); }

 private:
  std::map<std::string, std::shared_ptr<const Relation>> relations_;
  /// Lazily built encodings; mutable because encoding is a cache fill, not
  /// an observable mutation. Guarded by encoded_mutex_ (GetEncoded may be
  /// called from concurrent universal-table builds).
  mutable std::mutex encoded_mutex_;
  mutable std::map<std::string, std::shared_ptr<const EncodedRelation>>
      encoded_;
};

}  // namespace jim::rel

#endif  // JIM_RELATIONAL_CATALOG_H_
