#include "gas/resolve.hpp"

#include "core/action.hpp"
#include "core/locality.hpp"
#include "core/runtime.hpp"

namespace px::gas {

namespace {

// The hint action is raw-registered (non-spawning, like px.sink): a hint
// install is a spinlocked map write, and the ranks involved — the home of
// a hot object, a sender mid-storm — are exactly the ones whose workers
// may be monopolized; AGAS service traffic must not queue behind user
// fibers.  Runs at the hinted rank: install (or drop) the forwarding-cache
// entry.
parcel::action_id agas_hint_action_id() {
  static const parcel::action_id aid =
      parcel::action_registry::global().register_action(
          "px.agas_hint", +[](void* ctx, const parcel::parcel_view& pv) {
            auto* loc = static_cast<core::locality*>(ctx);
            const auto args =
                util::from_bytes<std::tuple<std::uint64_t, locality_id>>(
                    pv.arguments());
            const gid id = gid::from_bits(std::get<0>(args));
            const locality_id owner = std::get<1>(args);
            if (owner == invalid_locality) {
              loc->rt().gas().invalidate_cache(loc->id(), id);
            } else {
              loc->rt().gas().note_owner(loc->id(), id, owner);
            }
          });
  return aid;
}

// Eager: action ids are positional; every rank mints this at boot.
[[maybe_unused]] const parcel::action_id k_agas_hint_registration =
    agas_hint_action_id();

}  // namespace

void send_owner_hint(core::locality& from, locality_id to_rank, gid id,
                     locality_id owner) {
  parcel::parcel p;
  p.destination = from.rt().locality_gid(to_rank);
  p.action = agas_hint_action_id();
  p.arguments = util::to_bytes(
      std::tuple<std::uint64_t, locality_id>(id.bits(), owner));
  from.send(std::move(p));
}

}  // namespace px::gas
