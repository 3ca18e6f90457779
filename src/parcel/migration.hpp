// Migration payload records: object state on the wire.
//
// Within one process, runtime::migrate_gid_async moves a shared_ptr
// between locality tables — the bytes never move.  A *cross-process*
// migration has to ship the object's state through the same PR 2 frame
// pipeline every parcel rides, which needs two things the type-erased
// object table cannot provide:
//
//   * a wire encoding of the object's state (`migration_record`), and
//   * a way for the receiving process to reconstruct the object from those
//     bytes without knowing its static type (`migratable_registry`).
//
// A type participates by registering once, under a name, in every process
// (distributed mode enforces same-binary at bootstrap, so a static
// registration — PX_REGISTER_MIGRATABLE — holds machine-wide):
//
//   struct particle { double x, v;
//     template <typename Ar> friend void serialize(Ar& ar, particle& p) {
//       ar & p.x & p.v; } };
//   PX_REGISTER_MIGRATABLE(particle)
//
// The record carries the *name*, not a positional id: migration is
// control-plane rare, so a few string bytes per move buy immunity to
// registration-order drift between binaries.  Objects created through
// runtime::new_object are NOT migratable across processes unless created
// with runtime::new_migratable (which tags the gid with its type name);
// the rebalancer silently skips untagged objects when picking migration
// candidates, exactly as it skips non-data gids.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/serialize.hpp"
#include "util/spinlock.hpp"

namespace px::parcel {

// The argument payload of a px.migrate_object parcel: which object, what
// type, and its serialized state.  Travels as an ordinary typed-action
// argument tuple, so it flows through the batched/pooled frame pipeline
// like any other parcel.
struct migration_record {
  std::uint64_t gid_bits = 0;
  std::string type_name;
  std::vector<std::byte> payload;

  template <typename Ar>
  friend void serialize(Ar& ar, migration_record& r) {
    ar& r.gid_bits& r.type_name& r.payload;
  }
};

// Name -> {encode, decode} table for cross-process migratable types.
class migratable_registry {
 public:
  struct vtable {
    // Serializes the object's current state (the pointer is the object
    // table's type-erased entry; the caller guarantees it really is the
    // registered type).
    std::function<std::vector<std::byte>(const std::shared_ptr<void>&)>
        encode;
    // Reconstructs a fresh object from record bytes.
    std::function<std::shared_ptr<void>(std::span<const std::byte>)> decode;
  };

  static migratable_registry& global();

  // Asserts on duplicate names: two types sharing a name would implant the
  // wrong type at the destination.
  void register_type(std::string name, vtable vt);

  // nullptr for unknown names.  The returned pointer stays valid for the
  // process lifetime (entries are never removed).
  const vtable* find(const std::string& name) const;

 private:
  mutable util::spinlock lock_;
  std::map<std::string, vtable> types_;
};

// Per-type registration handle: remembers the name a type was registered
// under so runtime::new_migratable can tag fresh gids with it.
template <typename T>
struct migratable_type {
  static const std::string& ensure_registered(const char* name) {
    static const bool once = [name] {
      name_slot() = name;
      migratable_registry::global().register_type(
          name,
          migratable_registry::vtable{
              [](const std::shared_ptr<void>& p) {
                return util::to_bytes(*static_cast<const T*>(p.get()));
              },
              [](std::span<const std::byte> bytes) -> std::shared_ptr<void> {
                return std::make_shared<T>(util::from_bytes<T>(bytes));
              }});
      return true;
    }();
    (void)once;
    return name_slot();
  }

  static const std::string& name() {
    PX_ASSERT_MSG(!name_slot().empty(),
                  "type not registered; add PX_REGISTER_MIGRATABLE(T)");
    return name_slot();
  }

 private:
  static std::string& name_slot() {
    static std::string n;
    return n;
  }
};

// Registers T eagerly at static-init time (required: migration records may
// arrive before any local code touched T).
#define PX_DETAIL_MIG_CONCAT2(a, b) a##b
#define PX_DETAIL_MIG_CONCAT(a, b) PX_DETAIL_MIG_CONCAT2(a, b)
#define PX_REGISTER_MIGRATABLE_AS(T, name)                            \
  namespace {                                                         \
  [[maybe_unused]] const std::string& PX_DETAIL_MIG_CONCAT(           \
      px_migratable_registration_, __COUNTER__) =                     \
      ::px::parcel::migratable_type<T>::ensure_registered(name);      \
  }
#define PX_REGISTER_MIGRATABLE(T) PX_REGISTER_MIGRATABLE_AS(T, #T)

}  // namespace px::parcel
