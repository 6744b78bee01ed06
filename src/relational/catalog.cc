#include "relational/catalog.h"

#include "exec/parallel.h"

namespace jim::rel {

Catalog::Catalog(const Catalog& other) {
  std::lock_guard<std::mutex> lock(other.encoded_mutex_);
  relations_ = other.relations_;
  encoded_ = other.encoded_;
}

Catalog& Catalog::operator=(const Catalog& other) {
  if (this == &other) return *this;
  // Consistent-order double lock is unnecessary: assignment of a catalog
  // that is concurrently *mutated* is outside the contract (like any
  // container); the lock only keeps the encoded cache snapshot coherent
  // against concurrent GetEncoded fills on `other`.
  std::lock_guard<std::mutex> lock(other.encoded_mutex_);
  relations_ = other.relations_;
  encoded_ = other.encoded_;
  return *this;
}

util::Status Catalog::Add(Relation relation) {
  const std::string name = relation.name();
  if (name.empty()) {
    return util::InvalidArgumentError("relation must be named");
  }
  auto [it, inserted] = relations_.emplace(
      name, std::make_shared<const Relation>(std::move(relation)));
  if (!inserted) {
    return util::AlreadyExistsError("relation '" + name + "' already exists");
  }
  return util::OkStatus();
}

util::StatusOr<const Relation*> Catalog::Get(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return util::NotFoundError("no relation named '" + name + "'");
  }
  return it->second.get();
}

util::StatusOr<std::shared_ptr<const Relation>> Catalog::GetShared(
    const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return util::NotFoundError("no relation named '" + name + "'");
  }
  return it->second;
}

util::StatusOr<std::shared_ptr<const EncodedRelation>> Catalog::GetEncoded(
    const std::string& name) const {
  {
    std::lock_guard<std::mutex> lock(encoded_mutex_);
    auto cached = encoded_.find(name);
    if (cached != encoded_.end()) return cached->second;
  }
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return util::NotFoundError("no relation named '" + name + "'");
  }
  // Encode outside the lock (it is the expensive part); a racing encoder of
  // the same relation produces an identical mirror and the first insert
  // wins, so concurrent first-use is merely redundant work, never UB.
  // Large relations encode on the shared pool (codes are bitwise-identical
  // to serial at any thread count); small ones stay serial so a tiny
  // catalog never spins the process-wide pool up.
  exec::ThreadPool* pool = it->second->num_rows() >= kParallelIngestMinRows
                               ? &exec::SharedPool()
                               : nullptr;
  auto encoded = std::make_shared<const EncodedRelation>(
      EncodedRelation::FromRelation(*it->second, pool));
  std::lock_guard<std::mutex> lock(encoded_mutex_);
  auto [cached, inserted] = encoded_.emplace(name, std::move(encoded));
  return cached->second;
}

util::Status Catalog::Drop(const std::string& name) {
  if (relations_.erase(name) == 0) {
    return util::NotFoundError("no relation named '" + name + "'");
  }
  std::lock_guard<std::mutex> lock(encoded_mutex_);
  encoded_.erase(name);
  return util::OkStatus();
}

std::vector<std::string> Catalog::Names() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, relation] : relations_) {
    names.push_back(name);
  }
  return names;
}

}  // namespace jim::rel
