// The ParalleX runtime: localities + AGAS + parcel transport + lifecycle.
//
// One runtime models a whole machine: K localities (each a scheduler
// domain) connected by a parcel transport.  The runtime owns the global
// services — AGAS directory, symbolic name service, echo manager,
// percolation staging — and the system-wide quiescence protocol used for
// clean shutdown.
//
// Two deployment shapes share this class (PX_NET_BACKEND / net_params):
//
//   * single-process (default): every locality lives here, connected by
//     the latency-modelled net::fabric — the shape every pre-PR-4 test,
//     bench, and example runs in, unchanged;
//   * distributed ("tcp" or "shm"): the machine spans N processes
//     ("ranks"), one locality per process, connected by net::tcp_transport
//     over real sockets or net::shm_transport over same-host mapped rings,
//     with a net::bootstrap control plane.  localities_ is sparse
//     (only this rank's slot is populated; at() on a remote id asserts),
//     the AGAS directory shard for a gid lives in its *home rank's*
//     process, and objects genuinely migrate between processes.  One
//     handoff (migrate_gid_async; migrate_gid is its blocking wrapper)
//     serves both shapes, its table and decisions in core::migration
//     (core/migration.hpp), which this class drives: within a process it
//     moves the shared_ptr, across processes it ships a
//     registered-migratable object's state (parcel::migration_record) to
//     the destination, which implants it, flips the home directory
//     (flip_directory, the one path every flip takes), and acks before
//     the source retires its copy; parcels routed on stale knowledge heal
//     through bounded home forwarding with piggybacked owner hints
//     (gas/resolve.hpp), and the rebalancer issues cross-process
//     migrations fed by cross-rank query_counter samples.  Closure-carrying
//     calls (the untyped process::spawn) remain local-only — closures
//     cannot cross a process boundary; typed actions
//     (process::spawn_on<Fn>, process_ref,
//     litlx::atomic_object::atomically<Fn>) are the cross-process
//     vocabulary, since PR 6 with per-rank Dijkstra–Scholten credit
//     splitting (core/process_site.hpp) so remote children spawn tracked
//     grandchildren without a primary round trip.  wait_quiescent extends
//     the local fixed
//     point with a counting termination-detection collective over the
//     bootstrap.  Boot-time gid allocation (locality gids, counter gids)
//     replays identically in every process, so those names are
//     machine-wide valid without any directory traffic.
//
// Telemetry has one export path: the flight recorder and the stats
// sampler collect separately (PX_TRACE, PX_STATS), and dump_telemetry
// writes both into one shard per rank (docs/telemetry.md).
//
// Definitions: runtime.cpp holds construction, routing, quiescence and the
// wire-params blob; runtime_counters.cpp the counter schema and the
// telemetry shard; runtime_migration.cpp the migration driver and the
// directory flip.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "core/locality.hpp"
#include "core/migration.hpp"
#include "core/parcel_port.hpp"
#include "core/process_site.hpp"
#include "core/rebalancer.hpp"
#include "gas/agas.hpp"
#include "gas/name_service.hpp"
#include "introspect/registry.hpp"
#include "introspect/stats.hpp"
#include "net/fabric.hpp"
#include "net/transport.hpp"
#include "parcel/action_registry.hpp"
#include "parcel/migration.hpp"
#include "parcel/parcel.hpp"
#include "util/config.hpp"

namespace px::net {
class bootstrap;
}  // namespace px::net

namespace px::util {
class fault_injector;
}  // namespace px::util

namespace px::core {

class echo_manager;
class percolation_manager;

struct runtime_params {
  std::size_t localities = 4;
  unsigned workers_per_locality = 1;
  std::size_t stack_bytes = 64 * 1024;
  unsigned staging_slots_per_locality = 16;  // percolation staging depth
  // Transport backend + distributed identity (PX_NET_*); with the "tcp"
  // backend `localities` is overwritten with the rank count and this
  // process hosts exactly the locality numbered by its rank.
  net::net_params net{};
  // Fabric physics (sim backend only); `endpoints` is overwritten with
  // `localities`.
  net::fabric_params fabric{};
  std::uint64_t seed = 7;
  // Outbound parcel coalescing thresholds.  0 means "resolve from the
  // PX_PARCEL_FLUSH_BYTES / PX_PARCEL_FLUSH_COUNT environment, falling
  // back to the built-in defaults"; an explicit nonzero value wins over
  // the environment (flush_count = 1 disables coalescing).
  std::size_t parcel_flush_bytes = 0;
  std::uint32_t parcel_flush_count = 0;
  // Stale-cache forwarding hop bound: a parcel forwarded more than this
  // many times is dropped with a diagnostic (locality_stats counts drops).
  // Clamped to 254 — the u8 forwards counter must be able to exceed it.
  std::uint8_t max_forwards = 16;
  // First-parcel eager flush: when an isolated parcel opens a quiet port
  // channel and the sending scheduler has no other ready work, ship the
  // frame immediately instead of waiting for the flush-on-idle pass —
  // single-request latency without giving up batched throughput (bursts
  // are detected and left to coalesce).  -1 resolves from
  // PX_PARCEL_EAGER_FLUSH, defaulting to on.
  int parcel_eager_flush = -1;
  // Introspection-driven adaptive rebalancing (core/rebalancer.hpp).
  // `rebalance` is tri-state: -1 resolves from PX_REBALANCE (default
  // off).  Zero-valued tuning fields resolve from PX_REBALANCE_THRESHOLD /
  // PX_REBALANCE_MIN_DEPTH / PX_REBALANCE_MAX_MIGRATIONS /
  // PX_REBALANCE_INTERVAL_US, falling back to the rebalancer_params
  // built-ins.
  int rebalance = -1;
  double rebalance_threshold = 0.0;
  std::uint32_t rebalance_min_depth = 0;
  std::uint32_t rebalance_max_migrations = 0;
  std::uint64_t rebalance_interval_us = 0;
  // Telemetry (docs/telemetry.md): the flight recorder (src/trace/) and
  // the stats sampler (src/introspect/stats.*).  `trace` and `stats` are
  // tri-state: -1 resolves from PX_TRACE / PX_STATS (default off).  Ring
  // bytes 0 resolves from PX_TRACE_RING_BYTES (default 1 MiB per thread);
  // interval 0 from PX_STATS_INTERVAL_US (default 10ms); an empty dir from
  // PX_TELEMETRY_DIR (default ".").  Distributed, rank 0's resolved
  // toggles win machine-wide (they ride the wire-params blob) so the
  // clock-sync collective and the per-parcel wire extensions stay
  // symmetric across ranks.
  int trace = -1;
  std::size_t trace_ring_bytes = 0;
  int stats = -1;
  std::uint64_t stats_interval_us = 0;
  std::string telemetry_dir{};
};

class runtime {
 public:
  explicit runtime(runtime_params params = {});
  ~runtime();

  runtime(const runtime&) = delete;
  runtime& operator=(const runtime&) = delete;

  void start();
  void stop();
  bool started() const noexcept { return started_; }

  std::size_t num_localities() const noexcept { return localities_.size(); }
  // In distributed mode only this process's rank is addressable; asking
  // for a remote locality asserts (reach it with parcels instead).
  locality& at(gas::locality_id id);
  const runtime_params& params() const noexcept { return params_; }

  // Distributed identity: rank() == 0 and distributed() == false in the
  // single-process shape, so callers can be written once for both.
  bool distributed() const noexcept { return distributed_; }
  gas::locality_id rank() const noexcept { return rank_; }
  // The locality this process hosts (rank in distributed mode, 0 here).
  locality& here() { return at(rank_); }

  gas::agas& gas() noexcept { return agas_; }
  gas::name_service& names() noexcept { return names_; }
  // The distributed backend's resilience ledger (per-peer unit books,
  // dead-peer mask, lost-unit totals); nullptr under the sim backend.
  net::distributed_transport* dist() noexcept { return dist_.get(); }
  // The wire, backend-agnostic; and the simulated fabric specifically
  // (latency model, histogram — asserts under the tcp backend).
  net::transport& transport() noexcept { return *transport_; }
  net::fabric& fabric();
  parcel_port& port(gas::locality_id id) { return *ports_.at(id); }
  echo_manager& echo_mgr() noexcept { return *echo_; }
  percolation_manager& percolation_mgr() noexcept { return *percolation_; }

  // Introspection: the counter registry (every counter is gid-addressable
  // and path-named; see introspect/registry.hpp) and the adaptive
  // rebalancer acting on the schedulers' ready depths.
  introspect::registry& introspection() noexcept { return introspect_; }
  rebalancer& balancer() noexcept { return *balancer_; }

  // The typed hardware gid naming locality `id` (paper: hardware resources
  // are first-class named entities).
  gas::gid locality_gid(gas::locality_id id) const;

  // Routes a parcel from locality `from` toward its destination's current
  // owner.  Local destinations dispatch without touching the fabric;
  // remote destinations coalesce through `from`'s parcel port.  Parcels
  // past the max_forwards hop bound are dropped with a diagnostic.
  void route(gas::locality_id from, parcel::parcel p);

  // Owner locality for a destination gid as seen from `from` (LCO/hardware
  // gids never migrate: owner == home).
  gas::locality_id owner_of(gas::locality_id from, gas::gid id);

  // Blocks until every scheduler is quiescent and the transport is drained
  // — i.e. no thread, parcel, or pending wakeup exists anywhere.
  // Internally loops until a pass over all counters is bracketed by two
  // identical activity snapshots (see activity_snapshot), which makes the
  // check race-free against threads that hand off work and terminate
  // mid-pass.  Distributed mode extends the local fixed point with a
  // counting termination-detection collective (bootstrap::quiesce_round):
  // ALL ranks must call wait_quiescent (directly or via run()/stop()) the
  // same number of times — it is a collective operation.
  void wait_quiescent();

  // Writes this rank's telemetry shard, telemetry_dir/px_telemetry.<rank>.bin
  // (util/shard_writer.hpp): one `events` section per trace ring with
  // PX_TRACE on, the counter movement since boot, and the sampler's
  // series with PX_STATS on.  Returns the shard's size in bytes, or 0
  // when both planes are off (no file) or the file cannot be written.
  // stop() calls it after quiescence; the px.telemetry_dump action
  // triggers it mid-run.  Rings drain (a later dump carries only events
  // since); series do not (a later dump carries a longer window).
  std::uint64_t dump_telemetry();

  // The stats sampler (introspect/stats.hpp): series windows and
  // tick/drop totals.  Valid whether or not PX_STATS armed it.
  introspect::stats_collector& telemetry() noexcept { return *stats_; }

  // This rank's steady-clock offset from rank 0, sampled over the
  // bootstrap when tracing or stats are on (0 when sim, rank 0, or both
  // planes off).  local_now - offset ≈ rank-0 clock.
  std::int64_t clock_offset_ns() const noexcept { return clock_offset_ns_; }

  // Per-rank Dijkstra–Scholten credit ledgers for distributed process
  // trees (core/process_site.hpp; used by process_ref and the typed child
  // wrappers in core/process.hpp).
  process_site_table& process_sites() noexcept { return psites_; }

  // Convenience driver: start if needed, run `root`, wait for global
  // quiescence.  Single-process: `root` runs once, on locality 0.
  // Distributed: every rank runs its own `root` on its own locality (SPMD
  // — branch on rank() inside), and the quiescence wait is the collective.
  void run(std::function<void()> root);

  // ------------------------------------------------- global object API

  // Constructs a T at locality `where`, binds a fresh data gid.
  template <typename T, typename... Args>
  gas::gid new_object(gas::locality_id where, Args&&... args) {
    auto obj = std::make_shared<T>(std::forward<Args>(args)...);
    const gas::gid id = agas_.allocate(gas::gid_kind::data, where);
    agas_.bind(id, where);
    at(where).put_object(id, std::move(obj));
    return id;
  }

  // Local pointer to an object owned by locality `where`; nullptr when the
  // object is not (or no longer) there.
  template <typename T>
  std::shared_ptr<T> get_local(gas::locality_id where, gas::gid id) {
    return std::static_pointer_cast<T>(at(where).get_object(id));
  }

  // Like new_object, but tags the gid with T's registered migratable type
  // (PX_REGISTER_MIGRATABLE), making it eligible for *cross-process*
  // migration (migrate_gid / the distributed rebalancer).  Untagged
  // objects still migrate freely in-process.
  template <typename T, typename... Args>
  gas::gid new_migratable(gas::locality_id where, Args&&... args) {
    const gas::gid id = new_object<T>(where, std::forward<Args>(args)...);
    migrations_.tag(id.bits(), parcel::migratable_type<T>::name());
    return id;
  }

  // The one migration handoff, on every deployment shape: moves object
  // `id` from locality `from` to `to`.  Claims the gid in the per-gid
  // table (core::migration decides each step; this runtime drives it),
  // checks under the claim that `from` still holds the object, transfers
  // it, updates the directory, retires the source copy, then releases the
  // claim and fires `done(true)`.  Within a process the shared_ptr moves
  // (mutable state never forks, untagged objects move too) and `done`
  // fires before the call returns.  Across processes
  // (`from` must be this rank) the px.migrate_object record ships the
  // state and `done` fires on the delivery thread once the ack retires the
  // source copy; the call never blocks, because the rebalancer acts from
  // the transport progress thread.  Returns false, and never calls `done`,
  // when the gid is not data-kind, is already mid-migration (rejected, not
  // queued), is no longer resident at `from` (a stale heat entry), or
  // would cross processes without a registered migratable type.
  // docs/agas.md has the protocol and its coherence caveat.
  bool migrate_gid_async(gas::gid id, gas::locality_id from,
                         gas::locality_id to, std::function<void(bool)> done);

  // Blocking wrapper: `from` is the object's authoritative owner
  // in-process and this rank when distributed; waits for the handoff's
  // ack.  True when the object ends up at `to` (already there included).
  bool migrate_gid(gas::gid id, gas::locality_id to);

  // Up to `max` migratable-tagged gids currently resident at this rank's
  // locality.  The rebalancer's fallback candidate source: a latency-bound
  // backlog delivers too rarely for the 1-in-8 heat sampler to name the
  // hot objects, and on a deeply imbalanced rank shedding *any* resident
  // beats shedding nothing.
  std::vector<gas::gid> migratable_residents(std::size_t max) const;

  // Internal: the receiving side of px.migrate_object (implant + directory
  // flip), run as a typed action.
  std::uint8_t migrate_implant(const parcel::migration_record& rec);
  // Internal: the one home-directory flip — `id` is now owned by `owner`.
  // At the gid's effective home (this rank) the directory rebinds here;
  // elsewhere a px.agas_update parcel carries the flip to the home, and
  // `await_ack` blocks the calling fiber until the home has applied it.
  // The implant, the px.agas_update handler and the rank-loss sweep all
  // flip through it.
  void flip_directory(gas::gid id, gas::locality_id owner, bool await_ack);

  // ----------------------------------------------------------- resilience
  //
  // Surviving rank loss (docs/resilience.md).  Every detector reports into
  // the bootstrap's membership core (net/membership.hpp), the machine's one
  // dead mask.  Its first verdict per casualty runs this runtime's sweep
  // once: fold the casualty into the transport books and re-home the
  // directory.

  // The live authority for gids homed at `id.home()`: the home itself
  // while it lives, else the deterministic successor — the next live rank
  // scanning upward mod nranks, so every survivor elects the same one
  // with no coordination.
  gas::locality_id effective_home(gas::gid id) const noexcept;

  // Confirmed-dead peer ranks as a bitmask (bit r = rank r lost), and
  // whether any loss has been confirmed at all.
  std::uint64_t lost_peer_mask() const noexcept;
  bool has_lost_peers() const noexcept { return lost_peer_mask() != 0; }

  // Objects whose gid can no longer resolve because they died with a lost
  // rank: unique-gid count (the runtime/agas/gids_lost counter), and the
  // recording hook the route/arrival paths call per affected gid.
  std::uint64_t gids_lost() const noexcept {
    return gids_lost_.load(std::memory_order_relaxed);
  }
  void note_lost_gid(gas::gid id);

 private:
  friend class locality;

  // Resolves every knob from `env`, the one read of the PX_* environment.
  runtime(runtime_params params, const util::config& env);
  void deliver_from_fabric(net::message& m);
  void register_counters();
  std::uint64_t activity_snapshot() const;
  // One pass of the local quiescence fixed point; true when stable.
  bool local_quiescent_pass();
  // Wire-relevant runtime knobs as a blob rank 0 broadcasts at bootstrap
  // so every process runs identical parcel-pipeline behavior.
  std::vector<std::byte> encode_wire_params() const;
  void apply_wire_params(std::span<const std::byte> blob);
  // The sweep, run once per casualty by the membership's first verdict:
  // close and fold its link, purge hints at it, drop directory entries for
  // objects that died with it, re-register resident remotely-homed gids
  // at the successor through flip_directory.
  void sweep_casualty(gas::locality_id dead);

  runtime_params params_;
  gas::agas agas_;
  gas::name_service names_;
  introspect::registry introspect_;
  // Declaration order is load-bearing for destruction: the transport must
  // die first (its progress thread's handlers and idle callback reference
  // the localities, ports, and rebalancer), so fabric_/dist_ are
  // declared last of this group; the bootstrap (plain sockets, no
  // callbacks) may outlive the transport.
  std::vector<std::unique_ptr<locality>> localities_;  // sparse when distributed
  std::vector<std::unique_ptr<parcel_port>> ports_;  // one per local locality
  std::unique_ptr<rebalancer> balancer_;
  std::unique_ptr<net::bootstrap> bootstrap_;  // distributed control plane
  // PX_FAULT injector, armed on dist_'s send seam; declared before the
  // transport so the progress thread never outlives it.
  std::unique_ptr<util::fault_injector> fault_;
  std::unique_ptr<net::fabric> fabric_;        // sim backend
  std::unique_ptr<net::distributed_transport> dist_;  // tcp or shm backend
  net::transport* transport_ = nullptr;        // whichever backend is live
  // After the transports: the collector's sampler thread reads counter
  // callbacks that reference them, so it must be destroyed (joined) first.
  std::unique_ptr<introspect::stats_collector> stats_;
  std::vector<gas::gid> locality_gids_;
  std::unique_ptr<echo_manager> echo_;
  std::unique_ptr<percolation_manager> percolation_;

  // Per-process credit ledgers for this rank (process_sites()).
  process_site_table psites_;

  // The per-gid migration table and the handoff's decisions.
  migration migrations_;

  // Telemetry bookkeeping: the boot-time counter snapshot the shard's
  // counters section deltas against, a lock that keeps dumps one at a
  // time (the trace rings have a single consumer), and this rank's
  // steady-clock offset from rank 0 (sampled over the bootstrap control
  // plane; 0 when sim or rank 0), stamped into the shard header.
  std::vector<introspect::counter_sample> boot_counters_;
  std::mutex dump_mu_;
  std::int64_t clock_offset_ns_ = 0;

  // The unique gids reported lost with dead ranks.
  mutable util::spinlock lost_gids_lock_;
  std::unordered_set<gas::gid> lost_gids_;
  std::atomic<std::uint64_t> gids_lost_{0};

  bool eager_flush_ = true;  // resolved from params/env in the ctor
  bool distributed_ = false;
  gas::locality_id rank_ = 0;  // this process's locality (0 when sim)
  bool started_ = false;
};

// px.telemetry_dump: runs dump_telemetry on the receiving rank and
// replies with the shard's size in bytes (core::async on a locality gid).
std::uint64_t telemetry_dump_action();

}  // namespace px::core
