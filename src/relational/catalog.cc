#include "relational/catalog.h"

#include "exec/parallel.h"

namespace jim::rel {

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
    std::lock_guard<std::mutex> lock(cache_->mutex);
    auto cached = cache_->encoded.find(name);
    if (cached != cache_->encoded.end()) return cached->second;
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
  std::lock_guard<std::mutex> lock(cache_->mutex);
  auto [cached, inserted] = cache_->encoded.emplace(name, std::move(encoded));
  return cached->second;
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
