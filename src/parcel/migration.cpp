#include "parcel/migration.hpp"

#include <mutex>

namespace px::parcel {

migratable_registry& migratable_registry::global() {
  static migratable_registry instance;
  return instance;
}

void migratable_registry::register_type(std::string name, vtable vt) {
  PX_ASSERT(!name.empty());
  PX_ASSERT(vt.encode != nullptr && vt.decode != nullptr);
  std::lock_guard lock(lock_);
  const auto [it, inserted] = types_.emplace(std::move(name), std::move(vt));
  (void)it;
  PX_ASSERT_MSG(inserted, "migratable type name registered twice");
}

const migratable_registry::vtable* migratable_registry::find(
    const std::string& name) const {
  std::lock_guard lock(lock_);
  const auto it = types_.find(name);
  return it != types_.end() ? &it->second : nullptr;
}

}  // namespace px::parcel
