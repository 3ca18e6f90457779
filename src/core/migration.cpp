#include "core/migration.hpp"

#include <mutex>

#include "util/assert.hpp"

namespace px::core {

std::optional<std::string> migration::claim(std::uint64_t gid, bool data) {
  if (!data) return std::nullopt;
  std::lock_guard lock(lock_);
  entry& e = table_[gid];
  if (e.in_flight) return std::nullopt;
  e.in_flight = true;
  return e.type;
}

migration::step migration::route(std::uint64_t gid, bool resident,
                                 bool same_process, bool codec) {
  std::lock_guard lock(lock_);
  const auto it = table_.find(gid);
  PX_ASSERT_MSG(it != table_.end() && it->second.in_flight,
                "migration: route without a claim");
  const bool untagged = it->second.type.empty();
  if (resident && (same_process || (!untagged && codec))) {
    return same_process ? step::move : step::ship;
  }
  end_claim(it, false);
  return step::reject;
}

void migration::retire(std::uint64_t gid, bool crossed) {
  std::lock_guard lock(lock_);
  const auto it = table_.find(gid);
  PX_ASSERT_MSG(it != table_.end() && it->second.in_flight,
                "migration: retire without a claim");
  end_claim(it, crossed);
}

bool migration::implant(std::uint64_t gid, std::string type) {
  std::lock_guard lock(lock_);
  entry& e = table_[gid];
  if (e.in_flight) return false;
  e.in_flight = true;
  e.type = std::move(type);
  return true;
}

void migration::implanted(std::uint64_t gid) { retire(gid, false); }

void migration::tag(std::uint64_t gid, std::string type) {
  std::lock_guard lock(lock_);
  table_[gid].type = std::move(type);
}

std::vector<std::uint64_t> migration::tagged() const {
  std::vector<std::uint64_t> out;
  std::lock_guard lock(lock_);
  out.reserve(table_.size());
  for (const auto& [gid, e] : table_) {
    if (!e.type.empty()) out.push_back(gid);
  }
  return out;
}

void migration::end_claim(table::iterator it, bool forget) {
  if (forget || it->second.type.empty()) {
    table_.erase(it);
  } else {
    it->second.in_flight = false;
  }
}

}  // namespace px::core
