// The runtime as the migration core's driver (docs/agas.md): it moves the
// objects, calls AGAS and sends the parcels, and asks core::migration
// (core/migration.hpp) what each step of the handoff decides.  Also home to
// the one home-directory flip, which the rank-loss sweep shares.
#include <tuple>

#include "core/action.hpp"
#include "core/runtime.hpp"
#include "lco/lco.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/serialize.hpp"

namespace px::core {

namespace {

// Receiving side of px.migrate_object: reconstruct, implant, flip the home
// directory; the return value rides the continuation back to the source as
// the acknowledgment that gates retiring its copy.  A typed action (the
// handoff blocks on the home round trip, so it needs a fiber) — the
// destination of a migration is a below-mean rank with worker headroom.
std::uint8_t migrate_implant_action(parcel::migration_record rec);
PX_REGISTER_ACTION_AS(migrate_implant_action, "px.migrate_object")

std::uint8_t migrate_implant_action(parcel::migration_record rec) {
  return this_locality()->rt().migrate_implant(rec);
}

// Home side of the directory flip.  Raw-registered (non-spawning, like
// px.sink): a directory write is control plane and must not queue behind
// user fibers — the home of a hot object is often exactly the monopolized
// rank the migration is shedding load from, and a spawned handler there
// would stall every handoff until the backlog drained.
parcel::action_id agas_update_action_id() {
  static const parcel::action_id id =
      parcel::action_registry::global().register_action(
          "px.agas_update", +[](void* ctx, const parcel::parcel_view& pv) {
            auto* loc = static_cast<locality*>(ctx);
            runtime& rt = loc->rt();
            const auto args =
                util::from_bytes<std::tuple<std::uint64_t, gas::locality_id>>(
                    pv.arguments());
            const gas::gid id = gas::gid::from_bits(std::get<0>(args));
            PX_ASSERT_MSG(
                !rt.distributed() || rt.effective_home(id) == rt.rank(),
                "px.agas_update landed off the home rank");
            rt.flip_directory(id, std::get<1>(args), false);
            const std::uint8_t ok = 1;
            send_continuation_reply(*loc, pv.cont(), util::to_bytes(ok));
          });
  return id;
}

// Eager: action ids are positional; every rank must mint this at boot.
[[maybe_unused]] const parcel::action_id k_agas_update_registration =
    agas_update_action_id();

}  // namespace

void runtime::flip_directory(gas::gid id, gas::locality_id owner,
                             bool await_ack) {
  // effective_home: if the gid's encoded home died, the flip goes to (or
  // happens at) the adopted shard's successor instead.
  const gas::locality_id home = effective_home(id);
  if (home == rank_) {
    // The successor's adopted shard starts empty — hence the tolerant
    // rebind (upsert) instead of migrate's bound-entry assert.
    agas_.rebind(id, owner);
    // Refresh this rank's own forwarding view too: routing from the home
    // should go straight to the new owner, not through a stale cache entry
    // that would bounce the parcel off the previous one.
    agas_.note_owner(rank_, id, owner);
    return;
  }
  parcel::parcel p;
  p.destination = locality_gid(home);
  p.action = agas_update_action_id();
  p.arguments = util::to_bytes(
      std::tuple<std::uint64_t, gas::locality_id>(id.bits(), owner));
  if (!await_ack) {
    here().send(std::move(p));
    return;
  }
  lco::promise<std::uint8_t> prom;
  auto fut = prom.get_future();
  p.cont = make_promise_sink<std::uint8_t>(here(), std::move(prom));
  here().send(std::move(p));
  const std::uint8_t ok = fut.get();
  PX_ASSERT_MSG(ok == 1, "home rank refused the directory update");
}

std::uint8_t runtime::migrate_implant(const parcel::migration_record& rec) {
  const gas::gid id = gas::gid::from_bits(rec.gid_bits);
  if (trace::enabled()) {
    trace::emit_here(trace::event_kind::migrate_implant, rec.gid_bits,
                     static_cast<std::uint32_t>(rank_));
  }
  const auto* vt = parcel::migratable_registry::global().find(rec.type_name);
  PX_ASSERT_MSG(vt != nullptr,
                "migration record names an unregistered type — ranks must "
                "run the same binary with PX_REGISTER_MIGRATABLE in effect");
  auto obj = vt->decode(rec.payload);
  PX_ASSERT(obj != nullptr);
  // The claim covers the home round trip (migration::implant).
  const bool claimed = migrations_.implant(rec.gid_bits, rec.type_name);
  PX_ASSERT_MSG(claimed,
                "migration implant for a gid already mid-handoff here");
  // Implant before the directory flips: from this moment a parcel landing
  // here (raced ahead on a fresh hint) dispatches instead of bouncing.
  here().put_object(id, std::move(obj));
  flip_directory(id, rank_, true);
  agas_.note_owner(rank_, id, rank_);
  migrations_.implanted(rec.gid_bits);
  return 1;
}

bool runtime::migrate_gid(gas::gid id, gas::locality_id to) {
  if (id.kind() != gas::gid_kind::data) return false;
  PX_ASSERT(to < params_.localities);
  gas::locality_id from = rank_;
  if (!distributed_) {
    const auto owner = agas_.resolve_authoritative(to, id);
    if (!owner.has_value()) return false;
    from = *owner;
  }
  if (from == to) return at(to).has_object(id);
  // Works from a plain thread too: in-process the ack fires before
  // migrate_gid_async returns, and an LCO wait off a fiber spin-sleeps.
  lco::promise<std::uint8_t> prom;
  auto fut = prom.get_future();
  const bool issued = migrate_gid_async(
      id, from, to, [prom](bool ok) mutable { prom.set_value(ok ? 1 : 0); });
  if (!issued) return false;
  return fut.get() == 1;
}

bool runtime::migrate_gid_async(gas::gid id, gas::locality_id from,
                                gas::locality_id to,
                                std::function<void(bool)> done) {
  if (from == to || from >= params_.localities || to >= params_.localities ||
      localities_[from] == nullptr) {
    return false;
  }
  // (1) Claim the gid; (2) under the claim, the core routes the move on
  // what `from` still holds and where `to` lives.
  auto type =
      migrations_.claim(id.bits(), id.kind() == gas::gid_kind::data);
  if (!type.has_value()) return false;
  auto obj = at(from).get_object(id);
  const bool same_process = localities_[to] != nullptr;
  const parcel::migratable_registry::vtable* vt =
      same_process ? nullptr
                   : parcel::migratable_registry::global().find(*type);
  const migration::step step = migrations_.route(
      id.bits(), obj != nullptr, same_process, vt != nullptr);
  if (step == migration::step::reject) return false;
  // (5) Retire the source copy, then (6) release the claim and report.
  auto retire = [this, id, from, to, same_process,
                 done = std::move(done)] {
    at(from).erase_object(id);
    if (!same_process) {
      agas_.note_owner(rank_, id, to);
      if (trace::enabled()) {
        trace::emit_here(trace::event_kind::migrate_end, id.bits(),
                         static_cast<std::uint32_t>(to));
      }
    }
    migrations_.retire(id.bits(), !same_process);
    if (done) done(true);
  };
  if (step == migration::step::move) {
    // (3) Implant, (4) rebind: a parcel racing the move finds the object
    // wherever its resolution lands it (old owner until the directory
    // flips, new owner afterwards).
    at(to).put_object(id, std::move(obj));
    agas_.migrate(id, to);
    retire();
    return true;
  }
  // (3) Ship the record; (4) the destination flips the home directory
  // before it acks, and the ack sink (plain, on the delivery thread, so
  // non-blocking) retires our copy.
  parcel::migration_record rec;
  rec.gid_bits = id.bits();
  rec.type_name = std::move(*type);
  rec.payload = vt->encode(obj);
  if (trace::enabled()) {
    trace::emit_here(trace::event_kind::migrate_begin, id.bits(),
                     static_cast<std::uint32_t>(to));
  }
  const gas::gid sink = here().register_sink(
      [retire = std::move(retire)](parcel::parcel) { retire(); });
  apply_cont_from<&migrate_implant_action>(
      here(), locality_gid(to),
      parcel::continuation{sink, sink_action_id()}, rec);
  return true;
}

std::vector<gas::gid> runtime::migratable_residents(std::size_t max) const {
  // Residency is checked after the table snapshot (has_object takes the
  // object table lock; never hold both).
  std::vector<gas::gid> out;
  const locality& here = *localities_[rank_];
  for (const std::uint64_t bits : migrations_.tagged()) {
    if (out.size() >= max) break;
    const gas::gid id = gas::gid::from_bits(bits);
    if (here.has_object(id)) out.push_back(id);
  }
  return out;
}

}  // namespace px::core
