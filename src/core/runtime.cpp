#include "core/runtime.hpp"

#include <mutex>
#include <string>
#include <tuple>

#include "core/action.hpp"
#include "core/echo.hpp"
#include "core/percolation.hpp"
#include "net/bootstrap.hpp"
#include "net/shm_transport.hpp"
#include "net/tcp_transport.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/serialize.hpp"

namespace px::core {

// Built-in continuation target: fire a single-shot LCO sink.  Runs on the
// thread that received the frame by design — firing a future is
// enqueue-only work and skipping the thread spawn keeps continuation
// latency minimal.
// Registered as a raw function pointer (non-allocating dispatch); the sink
// closure may outlive the wire frame, so the parcel is materialized here.
parcel::action_id sink_action_id() {
  static const parcel::action_id id =
      parcel::action_registry::global().register_action(
          "px.sink", +[](void* ctx, const parcel::parcel_view& pv) {
            auto* loc = static_cast<locality*>(ctx);
            const bool fired =
                loc->fire_sink(pv.destination(), pv.to_parcel());
            PX_ASSERT_MSG(fired, "continuation parcel for unknown sink");
          });
  return id;
}

namespace {

// Resolves the transport backend + distributed identity before any member
// whose size depends on the locality count constructs (AGAS shards are per
// locality, and under the tcp backend the locality count *is* the rank
// count from the launcher's environment).
runtime_params resolve_net(runtime_params p, const util::config& cfg) {
  if (p.net.backend.empty()) {
    p.net.backend = cfg.get_string("net.backend", "sim");
  }
  if (p.net.rank < 0) p.net.rank = cfg.get_int("net.rank", 0);
  if (p.net.ranks <= 0) p.net.ranks = cfg.get_int("net.ranks", 0);
  if (p.net.listen.empty()) {
    p.net.listen = cfg.get_string("net.listen", "127.0.0.1:0");
  }
  if (p.net.root.empty()) {
    p.net.root = cfg.get_string("net.root", "127.0.0.1:7733");
  }
  PX_ASSERT_MSG(p.net.backend == "sim" || p.net.backend == "tcp" ||
                    p.net.backend == "shm",
                "PX_NET_BACKEND must be \"sim\", \"tcp\", or \"shm\"");
  if (p.net.backend == "tcp" || p.net.backend == "shm") {
    PX_ASSERT_MSG(p.net.ranks >= 1,
                  "distributed backend: PX_NET_RANKS (or net.ranks) required");
    PX_ASSERT_MSG(p.net.rank >= 0 && p.net.rank < p.net.ranks,
                  "PX_NET_RANK out of range");
    p.localities = static_cast<std::size_t>(p.net.ranks);
  }
  return p;
}

// A nonzero explicit value wins, else the PX_* knob `key`, else
// `fallback`.
template <typename T>
T knob(T value, const util::config& cfg, const char* key,
       std::int64_t fallback) {
  return value != 0 ? value : static_cast<T>(cfg.get_int(key, fallback));
}

// A tri-state toggle as 0/1: -1 resolves from the PX_* knob `key`.
int toggle(int value, const util::config& cfg, const char* key,
           bool fallback) {
  return (value < 0 ? cfg.get_bool(key, fallback) : value != 0) ? 1 : 0;
}

util::config environment() {
  util::config cfg;
  cfg.load_environment();
  return cfg;
}

}  // namespace

// Every knob below resolves from one read of the PX_* environment.
runtime::runtime(runtime_params params)
    : runtime(std::move(params), environment()) {}

runtime::runtime(runtime_params params, const util::config& cfg)
    : params_(resolve_net(std::move(params), cfg)),
      agas_(params_.localities),
      introspect_(agas_, names_) {
  PX_ASSERT(params_.localities >= 1);
  distributed_ =
      params_.net.backend == "tcp" || params_.net.backend == "shm";
  rank_ = distributed_ ? static_cast<gas::locality_id>(params_.net.rank) : 0;
  params_.fabric.endpoints = params_.localities;
  // parcel::forwards is u8: a bound of 255 could never trip (the counter
  // would wrap to 0 first), silently restoring unbounded forwarding.
  params_.max_forwards = std::min<std::uint8_t>(params_.max_forwards, 254);

  // Coalescing thresholds: explicit params win, then PX_PARCEL_FLUSH_*
  // environment variables, then built-in defaults.  The eager-flush and
  // rebalancer knobs resolve the same way (PX_PARCEL_EAGER_FLUSH,
  // PX_REBALANCE, PX_REBALANCE_*).
  parcel_port_params pp;
  rebalancer_params rp;
  params_.parcel_flush_bytes = knob(params_.parcel_flush_bytes, cfg,
                                    "parcel.flush_bytes", pp.flush_bytes);
  params_.parcel_flush_count = knob(params_.parcel_flush_count, cfg,
                                    "parcel.flush_count", pp.flush_count);
  eager_flush_ = toggle(params_.parcel_eager_flush, cfg, "parcel.eager_flush",
                        true) != 0;
  rp.enabled = toggle(params_.rebalance, cfg, "rebalance", false) != 0;
  rp.threshold = params_.rebalance_threshold > 0.0
                     ? params_.rebalance_threshold
                     : cfg.get_double("rebalance.threshold", rp.threshold);
  rp.min_depth = knob(params_.rebalance_min_depth, cfg, "rebalance.min_depth",
                      rp.min_depth);
  rp.max_migrations = knob(params_.rebalance_max_migrations, cfg,
                           "rebalance.max_migrations", rp.max_migrations);
  rp.interval_us = knob(params_.rebalance_interval_us, cfg,
                        "rebalance.interval_us", rp.interval_us);
  params_.trace = toggle(params_.trace, cfg, "trace", false);
  params_.trace_ring_bytes =
      knob(params_.trace_ring_bytes, cfg, "trace.ring_bytes", 1 << 20);
  params_.stats = toggle(params_.stats, cfg, "stats", false);
  params_.stats_interval_us =
      knob(params_.stats_interval_us, cfg, "stats.interval_us", 10'000);
  if (params_.telemetry_dir.empty()) {
    params_.telemetry_dir = cfg.get_string("telemetry.dir", ".");
  }
  // Normalize the resolved toggles into params_ so rank 0's wire blob
  // carries them (apply_wire_params overwrites them on other ranks — the
  // whole machine must agree on routing/forwarding/rebalance behavior).
  params_.rebalance = rp.enabled ? 1 : 0;

  threads::scheduler_params sp;
  sp.workers = params_.workers_per_locality;
  sp.stack_bytes = params_.stack_bytes;
  // Threads on this host that may spin at once: every locality's workers.
  // No transport thread spins (shm's progress thread sleeps on its doorbell
  // while the workers poll the rings, tcp's blocks in poll(2), the sim
  // fabric's on a condition variable).
  sp.host_threads = static_cast<unsigned>(params_.localities) * sp.workers;

  // In distributed mode this process hosts exactly one locality (its
  // rank); the other slots stay null so a stray in-process access to a
  // remote locality asserts instead of silently reading the wrong machine.
  for (std::size_t i = 0; i < params_.localities; ++i) {
    if (distributed_ && i != rank_) {
      localities_.push_back(nullptr);
      continue;
    }
    sp.seed = params_.seed + i * 0x9e3779b9u;
    localities_.push_back(std::make_unique<locality>(
        *this, static_cast<gas::locality_id>(i), sp));
  }

  // Bind the typed hardware name of each locality and expose it in the
  // symbolic namespace ("hw/locality/<i>").  Every process replays the
  // allocation for *all* localities: boot-time gid sequences must be
  // identical machine-wide so `locality_gid(r)` addresses rank r's
  // locality from any process.
  for (std::size_t i = 0; i < params_.localities; ++i) {
    const auto lid = static_cast<gas::locality_id>(i);
    const gas::gid g = agas_.allocate(gas::gid_kind::hardware, lid);
    agas_.bind(g, lid);
    locality_gids_.push_back(g);
    if (localities_[i] != nullptr) localities_[i]->here_ = g;
    names_.register_name("hw/locality/" + std::to_string(i), g);
  }

  // Transport backend.  The distributed path is three-phase: claim the
  // data plane (ctor — tcp binds its listener, shm creates its segments),
  // trade endpoints + wire params through the bootstrap (the endpoint
  // string is opaque to the control plane: "host:port" for tcp, a segment
  // token for shm), and — only after every local consumer below is wired
  // up — establish the mesh (connect_peers starts the progress thread, so
  // the handler must already be in place; a fast peer may send the moment
  // its ctor ends).
  std::vector<std::string> peer_table;
  if (distributed_) {
    if (params_.net.backend == "tcp") {
      net::tcp_params tp;
      tp.rank = rank_;
      tp.nranks = static_cast<std::uint32_t>(params_.localities);
      tp.listen = params_.net.listen;
      dist_ = std::make_unique<net::tcp_transport>(tp);
    } else {
      net::shm_params sp;
      sp.rank = rank_;
      sp.nranks = static_cast<std::uint32_t>(params_.localities);
      sp.ring_bytes = static_cast<std::size_t>(cfg.get_int(
          "shm.ring_bytes", static_cast<std::int64_t>(sp.ring_bytes)));
      dist_ = std::make_unique<net::shm_transport>(sp);
    }
    // Resilience knobs + fault plan resolve from this rank's own
    // environment: the heartbeat/lease must be live *before* the wire-params
    // exchange (a rank that dies mid-boot must not hang the others), so
    // they cannot ride rank 0's blob; launchers set them uniformly.
    net::bootstrap_params bp;
    bp.rank = rank_;
    bp.nranks = static_cast<std::uint32_t>(params_.localities);
    bp.root = params_.net.root;
    bp.heartbeat_interval_us = static_cast<std::uint64_t>(cfg.get_int(
        "heartbeat.interval_us",
        static_cast<std::int64_t>(bp.heartbeat_interval_us)));
    bp.lease_ms = static_cast<std::uint64_t>(
        cfg.get_int("lease.ms", static_cast<std::int64_t>(bp.lease_ms)));
    if (cfg.contains("fault")) {
      const std::string spec = cfg.get_string("fault", "");
      const auto plan = util::fault_plan::parse(spec);
      PX_ASSERT_MSG(plan.has_value(),
                    "PX_FAULT does not parse — a fault plan that cannot arm "
                    "must refuse to run, not silently do nothing");
      fault_ = std::make_unique<util::fault_injector>(
          plan->for_rank(static_cast<std::uint64_t>(rank_)),
          static_cast<std::uint64_t>(rank_));
      if (!fault_->empty()) dist_->arm_faults(fault_.get());
    }
    // A link that died (tcp EOF, shm pid probe, or the close a verdict
    // asked for) has folded its books; it reports into the same membership
    // as the control plane's detectors.  Installed before connect_peers per
    // the transport contract; until survive mode is armed below, any death
    // is fatal.
    dist_->set_peer_death_handler([this](std::size_t r) {
      const auto rank = static_cast<std::uint32_t>(r);
      bootstrap_->members().note_folded(rank);
      bootstrap_->report_death(rank, "data link lost");
    });
    bootstrap_ = std::make_unique<net::bootstrap>(bp);
    const std::vector<std::byte> blob =
        rank_ == 0 ? encode_wire_params() : std::vector<std::byte>{};
    auto ex = bootstrap_->exchange(dist_->listen_address(), blob);
    // Rank 0's wire-relevant knobs win everywhere: ranks coalescing with
    // different thresholds or forward bounds would be a debugging trap.
    if (rank_ != 0) apply_wire_params(ex.params_blob);
    peer_table = std::move(ex.endpoints);
    transport_ = dist_.get();
  } else {
    fabric_ = std::make_unique<net::fabric>(params_.fabric);
    transport_ = fabric_.get();
  }

  // Re-read the toggle the exchange may have overwritten (rank 0's value
  // wins machine-wide).
  rp.enabled = params_.rebalance != 0;

  pp.flush_bytes = params_.parcel_flush_bytes;
  pp.flush_count = std::max<std::uint32_t>(1, params_.parcel_flush_count);

  for (std::size_t i = 0; i < params_.localities; ++i) {
    if (localities_[i] == nullptr) {
      ports_.push_back(nullptr);
      continue;
    }
    const auto ep = static_cast<net::endpoint_id>(i);
    transport_->set_handler(ep, [this](net::message& m) {
      deliver_from_fabric(m);
    });
    ports_.push_back(std::make_unique<parcel_port>(*transport_, ep, pp));
  }
  balancer_ = std::make_unique<rebalancer>(*this, rp);
  if (rp.enabled) {
    for (auto& loc : localities_) {
      if (loc != nullptr) loc->enable_heat_tracking();
    }
  }

  for (std::size_t i = 0; i < params_.localities; ++i) {
    if (localities_[i] == nullptr) continue;
    // Flush-on-idle: a worker with nothing to run ships this locality's
    // half-full frames (communication fills the compute troughs) and gives
    // the rebalancer a rate-limited chance to pull work its way.
    localities_[i]->sched_.set_idle_hook(
        [port = ports_[i].get(), bal = balancer_.get()] {
          port->flush_all();
          bal->poll();
        });
    // Receive on the idle worker: a spinning worker reads the links itself.
    if (dist_ != nullptr) {
      localities_[i]->sched_.set_poll_hook(
          [d = dist_.get()](bool leaving) { d->poll(leaving); });
    }
  }
  // Backstop: if every worker of a locality is pinned busy (or asleep with
  // the inject path quiet), the transport progress thread flushes and
  // rebalances for them — the overloaded locality never runs its own idle
  // hook, so this is the path that observes it.
  transport_->set_idle_callback([this] {
    for (auto& port : ports_) {
      if (port != nullptr) port->flush_all();
    }
    balancer_->poll();
  });

  // Telemetry collector: constructed before register_counters so the
  // /stats/* rows can sample it; armed last (below), after clock sync, so
  // its t=0 tick sees the final counter schema.  params_.stats is already
  // machine-agreed here — the wire-params exchange above overwrote it on
  // non-zero ranks.
  {
    introspect::stats_params stp;
    stp.enabled = params_.stats != 0;
    stp.interval_us = params_.stats_interval_us;
    stats_ = std::make_unique<introspect::stats_collector>(introspect_, stp);
  }

  register_counters();

  echo_ = std::make_unique<echo_manager>(*this);
  percolation_ = std::make_unique<percolation_manager>(
      *this, params_.staging_slots_per_locality);

  if (distributed_) {
    dist_->connect_peers(peer_table);
    // Barrier before traffic: no rank leaves its ctor (and starts sending
    // parcels) until every rank's mesh and handlers are up.  The barrier
    // also cross-checks the counter-schema digest — boot-time gid
    // allocation must have replayed identically in every process.
    bootstrap_->barrier(introspect_.schema_digest());
    // Survive mode arms only now, after every rank proved it booted: a
    // death *during* boot stays fatal machine-wide (the partial machine
    // exits with a diagnostic inside the lease), while a death after this
    // point is survivable — the first verdict per casualty sweeps it.
    bootstrap_->set_peer_down_handler([this](std::uint32_t r) {
      sweep_casualty(static_cast<gas::locality_id>(r));
    });
    // Clock sync rides the control plane after the barrier so the RTT
    // samples are not polluted by the connect storm.  Collective, so it
    // runs only under the machine-agreed toggles (rank 0's wire blob) —
    // the trace and stats planes share one offset.
    if (params_.trace != 0 || params_.stats != 0) {
      clock_offset_ns_ = bootstrap_->clock_sync();
    }
  }
  // Arm the flight recorder last: every consumer above is wired and no
  // parcel can have flowed yet, so the rings start at a clean epoch.
  trace::recorder::global().configure(params_.trace != 0,
                                      params_.trace_ring_bytes,
                                      static_cast<std::uint32_t>(rank_));
  // The shard's counters section is the movement since this snapshot.
  if (params_.trace != 0 || params_.stats != 0) {
    boot_counters_ = introspect_.snapshot_all();
  }
  // Same epoch discipline for the stats sampler: armed only now, so its
  // t=0 tick (and every parcel send-timestamp stamp) happens after the
  // offset is known.
  stats_->arm();
}

runtime::~runtime() {
  if (started_) stop();
}

void runtime::start() {
  PX_ASSERT_MSG(!started_, "runtime started twice");
  for (auto& loc : localities_) {
    if (loc != nullptr) loc->sched_.start();
  }
  started_ = true;
  PX_LOG_INFO("parallex runtime up: %zu localities x %u workers (%s)",
              localities_.size(), params_.workers_per_locality,
              transport_->backend_name());
}

void runtime::stop() {
  if (!started_) return;
  wait_quiescent();
  // Write the shard after quiescence (no producer is mid-request) but
  // before the shutdown barrier, so a fast rank's exit cannot outrun a
  // slow rank's shard write.  Disarm first (joins the sampler and takes
  // the closing tick): the series always end at quiescence time.
  stats_->disarm();
  dump_telemetry();
  // Shutdown sequencing across processes: the quiescence verdict already
  // synchronized everyone, but the barrier keeps a fast rank from tearing
  // its sockets down while a slow one is still inside its final drain.
  if (distributed_) {
    // Flag the orderly shutdown *before* the barrier: once any rank is
    // past it, every rank has already marked peer disconnects expected.
    dist_->expect_peer_disconnects();
    bootstrap_->barrier();
    // Goodbye handshake after the barrier: from here on heartbeat EOFs
    // and lease expiries are orderly teardown, not deaths — without it a
    // fast-exiting rank would be declared a casualty by the survivors.
    bootstrap_->expect_shutdown();
  }
  for (auto& loc : localities_) {
    if (loc != nullptr) loc->sched_.stop();
  }
  started_ = false;
}

locality& runtime::at(gas::locality_id id) {
  PX_ASSERT(id < localities_.size());
  PX_ASSERT_MSG(localities_[id] != nullptr,
                "at(): locality lives in another process (distributed "
                "mode); reach it with parcels, not pointers");
  return *localities_[id];
}

net::fabric& runtime::fabric() {
  PX_ASSERT_MSG(fabric_ != nullptr,
                "fabric(): no simulated fabric under the tcp backend");
  return *fabric_;
}

gas::gid runtime::locality_gid(gas::locality_id id) const {
  PX_ASSERT(id < locality_gids_.size());
  return locality_gids_[id];
}

std::uint64_t runtime::lost_peer_mask() const noexcept {
  return bootstrap_ != nullptr ? bootstrap_->members().dead_mask() : 0;
}

gas::locality_id runtime::effective_home(gas::gid id) const noexcept {
  const gas::locality_id home = id.home();
  if (!distributed_) return home;
  const std::uint64_t mask = lost_peer_mask();
  if (((mask >> home) & 1u) == 0) return home;
  // Deterministic succession: the next live rank scanning upward mod
  // nranks.  Pure arithmetic over the dead mask, so every survivor elects
  // the same successor without a coordination round; repeated losses just
  // step further along the ring.
  const std::size_t n = params_.localities;
  for (std::size_t step = 1; step < n; ++step) {
    const auto r =
        static_cast<gas::locality_id>((home + step) % n);
    if (((mask >> r) & 1u) == 0) return r;
  }
  return home;  // unreachable while this process lives (we are a live rank)
}

gas::locality_id runtime::owner_of(gas::locality_id from, gas::gid id) {
  // LCO sinks and hardware names never migrate: the home *is* the owner —
  // and both die with their home's process (a sink is process-local state),
  // so no successor is consulted; route() retires parcels for them.
  if (id.kind() == gas::gid_kind::lco ||
      id.kind() == gas::gid_kind::hardware) {
    return id.home();
  }
  if (distributed_ && id.home() != rank_) {
    const gas::locality_id home = effective_home(id);
    if (home != rank_) {
      // The authoritative directory shard lives in the (effective) home
      // rank's process.  A forwarding-cache hint (learned from a home
      // forward's piggyback) short-circuits the extra hop — unless it
      // points at a casualty (purged on the death verdict, but a racing
      // read can still see one), and absent a hint the parcel routes to
      // the home, whose directory forwards it onward — always correct, at
      // most one hop stale.
      if (const auto hint = agas_.cached(rank_, id)) {
        if (((lost_peer_mask() >> *hint) & 1u) == 0) {
          return *hint;
        }
      }
      return home;
    }
    // We are the casualty's successor for this gid: fall through — the
    // adopted shard below is the authority now (populated by survivors'
    // re-registrations; still-missing entries resolve unbound and the
    // parcel is reported lost rather than wedging).
  }
  const auto owner = agas_.resolve(from, id);
  return owner.value_or(gas::invalid_locality);
}

void runtime::route(gas::locality_id from, parcel::parcel p) {
  if (p.forwards > params_.max_forwards) {
    // Stale-cache forwarding loop (or a migration storm outrunning the
    // directory): drop with a diagnostic rather than bouncing forever.
    at(from).note_dropped();
    PX_LOG_WARN(
        "dropping parcel after %u forwards (action %u, dest %s, source %u)",
        static_cast<unsigned>(p.forwards), p.action,
        p.destination.to_string().c_str(), p.source);
    return;
  }
  const gas::locality_id owner = owner_of(from, p.destination);
  if (owner == gas::invalid_locality) {
    // Unbound destination.  With a confirmed casualty this is the expected
    // fate of an object that died with it (entry purged from our shard, or
    // never re-registered into an adopted one): retire the parcel into the
    // dropped books — never wedge resolution.  Healthy machine: the hard
    // bug it always was.
    PX_ASSERT_MSG(has_lost_peers(), "route: destination gid is unbound");
    note_lost_gid(p.destination);
    at(from).note_dropped();
    return;
  }
  if (distributed_ && owner != rank_ && ((lost_peer_mask() >> owner) & 1u)) {
    // The owner rank is confirmed dead (non-migratable gid homed there, or
    // a resolution that still names the casualty): the object is gone with
    // its process.  Drop here, before the transport — the link is already
    // torn down.
    note_lost_gid(p.destination);
    at(from).note_dropped();
    return;
  }
  if (owner == from) {
    // Local fast path: intra-locality parcels do not touch the fabric
    // (the locality is the synchronous domain; its internal latency is
    // the scheduler's, not the network's).
    at(owner).deliver(std::move(p));
    return;
  }
  const auto dest_ep = static_cast<net::endpoint_id>(owner);
  if (p.trace_id != 0 && trace::enabled()) {
    trace::emit(trace::event_kind::parcel_enqueue, p.trace_id, p.trace_span,
                0, static_cast<std::uint64_t>(dest_ep),
                static_cast<std::uint32_t>(p.action));
  }
  const auto res = ports_[from]->enqueue(dest_ep, p);
  // First-parcel eager flush: an isolated request from an otherwise-empty
  // port, sent by a locality with no other ready work, would sit buffered
  // until the sender suspends and the flush-on-idle pass runs — pure added
  // latency with nothing to coalesce behind it.  Three guards keep bursts
  // batching: the channel must have been quiet (a storm re-opens its frame
  // within the burst window), the whole port must hold nothing but this
  // parcel (a multi-destination storm keeps sibling frames open), and the
  // scheduler must have no ready backlog (queued threads mean more
  // parcels are coming).
  if (res.quiet_first && !res.shipped && eager_flush_ &&
      ports_[from]->pending() <= 1 &&
      at(from).sched().ready_estimate() == 0) {
    ports_[from]->flush_eager(dest_ep);
  }
}

void runtime::deliver_from_fabric(net::message& m) {
  // Zero-copy receive: walk the batch frame in place; each parcel_view
  // borrows the message payload, which the fabric recycles after we
  // return.  Actions that keep state copy what they need.
  const auto frame = parcel::frame_view::parse(m.payload);
  PX_ASSERT_MSG(frame.has_value(), "fabric delivered an invalid parcel frame");
  if (trace::enabled()) {
    trace::emit_here(trace::event_kind::wire_rx, m.payload.size(),
                     static_cast<std::uint32_t>(m.source));
  }
  locality& dst = at(m.dest);
  for (auto it = frame->begin(); it != frame->end(); ++it) {
    dst.deliver(*it);
  }
}

std::uint64_t runtime::activity_snapshot() const {
  // Monotonic count of work-creation events across this process: every
  // thread spawn, every parcel enqueued on a port, and every parcel the
  // transport accepts bumps it before the work becomes visible.  Two equal
  // snapshots bracketing a pass of zero-valued counter reads prove the
  // pass observed a true fixed point.  (A parcel moving port -> transport
  // is counted by both monotonic counters; only equality matters.)
  std::uint64_t n = transport_->messages_sent_total();
  for (const auto& port : ports_) {
    if (port != nullptr) n += port->enqueued_total();
  }
  for (const auto& loc : localities_) {
    if (loc != nullptr) n += loc->sched_.spawn_count();
  }
  return n;
}

bool runtime::local_quiescent_pass() {
  // Fixed point: every scheduler idle AND no parcel coalescing in a port
  // AND no parcel in flight.  A drained transport can re-populate
  // schedulers (handlers spawn threads), idle schedulers can re-populate
  // the ports, and flushed ports re-populate the transport, so the caller
  // loops until a pass observes all three conditions with no intervening
  // activity.
  //
  // The per-counter reads below are not atomic as a group, so a thread
  // that sends a parcel and terminates *between* the in_flight() read and
  // its locality's live_threads() read would make the pass look stable
  // with a parcel still in flight — the premature-quiescence race behind
  // the Runtime.ApplyRunsOnTargetLocality hang.  The activity snapshot
  // closes it: any such hidden transition performed a spawn or an enqueue
  // during the pass, which changes the snapshot and forces another loop.
  // A parcel buffered in a port is visible as pending() from the moment
  // it is counted, so coalescing cannot fake quiescence either.
  const std::uint64_t before = activity_snapshot();
  for (auto& port : ports_) {
    if (port != nullptr) port->flush_all();
  }
  for (auto& loc : localities_) {
    if (loc != nullptr) loc->sched_.wait_quiescent();
  }
  transport_->drain();
  bool stable = transport_->in_flight() == 0;
  for (auto& port : ports_) {
    if (port != nullptr) stable = stable && port->pending() == 0;
  }
  for (auto& loc : localities_) {
    if (loc != nullptr) stable = stable && loc->sched_.live_threads() == 0;
  }
  return stable && activity_snapshot() == before;
}

void runtime::wait_quiescent() {
  for (;;) {
    const bool locally_stable = local_quiescent_pass();
    if (!distributed_) {
      if (locally_stable) return;
      continue;
    }
    // Distributed: local stability is necessary, not sufficient — a peer
    // may still have parcels for us on the wire (invisible to any local
    // counter once its sender wrote them to the kernel).  Every rank
    // reports its books each round; rank 0 declares global quiescence
    // when all ranks were locally stable with machine-wide sent ==
    // delivered across two identical consecutive rounds (counting
    // termination detection — see net/bootstrap.hpp).  The round is
    // paced naturally: local passes block while local work is live.
    // Dropped parcels (dead links, fault drops) leave the sent balance:
    // they will never be delivered anywhere, and counting them would make
    // the global sent == delivered test unsatisfiable forever.  Under
    // rank loss the round runs over the live membership with the
    // casualty's whole column subtracted from both sides — the units we
    // sent it are unknowable, the units it sent us already counted — so
    // the collective converges minus the casualty (the mask agreement
    // keeps ranks with divergent views from quiescing).  A rank whose
    // casualties are not all settled (its link's close folded the books,
    // and the sweep re-homed the directory) must not report stable: the
    // verdict would let peers resume sending while its directory still
    // routes through the casualty or its books are still moving.
    const net::membership& members = bootstrap_->members();
    const std::uint64_t dead = members.dead_mask();
    if (bootstrap_->quiesce_round(locally_stable && members.settled(),
                                  activity_snapshot(),
                                  dist_->live_units_sent(dead),
                                  dist_->live_units_received(dead))) {
      return;
    }
  }
}

void runtime::run(std::function<void()> root) {
  if (!started_) start();
  // Single-process: root runs once on locality 0.  Distributed: SPMD —
  // every rank runs its own copy on its own locality (rank_ is 0 when
  // single-process, so one expression serves both).
  at(rank_).spawn(std::move(root));
  wait_quiescent();
}

// ------------------------------------------------------------- resilience

void runtime::note_lost_gid(gas::gid id) {
  bool fresh = false;
  {
    std::lock_guard lock(lost_gids_lock_);
    fresh = lost_gids_.insert(id).second;
  }
  if (fresh) {
    gids_lost_.fetch_add(1, std::memory_order_relaxed);
    // Once per gid, not per parcel: a storm aimed at a lost object must
    // not turn the log into the bottleneck.
    PX_LOG_WARN("gid %s lost with a dead rank; parcels for it are dropped",
                id.to_string().c_str());
  }
}

void runtime::sweep_casualty(gas::locality_id dead) {
  // The close may already have run (the link's death was the detector);
  // otherwise the progress thread folds the books a beat later, and the
  // quiescence gate waits for that.
  dist_->mark_peer_dead(dead);
  // Hints pointing at the casualty would bounce parcels off a torn-down
  // link; purge them so routing falls back to (effective-)home.
  agas_.purge_owner_hints(rank_, dead);
  // Entries in our own directory shard whose owner was the casualty: the
  // objects died with its process.  Unbind them — resolution answers
  // "unbound" and route() retires the parcel — and report each lost.
  for (const gas::gid id : agas_.drop_entries_owned_by(rank_, dead)) {
    note_lost_gid(id);
  }
  // Resident objects homed at the casualty survive here but their
  // directory authority is gone: re-register each at the successor (who
  // adopts the casualty's shard index; possibly us) through the one flip.
  // Objects that were *resident at* the casualty have nobody to speak for
  // them — their first parcel resolves unbound at the successor and is
  // reported lost there.
  for (const gas::gid id : here().resident_objects_homed_at(dead)) {
    flip_directory(id, rank_, false);
  }
  bootstrap_->members().note_swept(static_cast<std::uint32_t>(dead));
}

namespace {

// Action ids are positional (assigned in registration order), so every
// process must hold the identical table before cross-process dispatch: a
// parcel carries only the id, and rank A's id 7 must be rank B's id 7.
// Static registrations (PX_REGISTER_ACTION) of one binary are
// link-ordered and deterministic; this snapshot, traded at bootstrap,
// catches mismatched binaries — or eager-vs-lazy registration drift —
// before the first parcel instead of as a wrong-action dispatch.
std::string action_table_snapshot() {
  auto& reg = parcel::action_registry::global();
  std::string out;
  const auto n = static_cast<parcel::action_id>(reg.size());
  for (parcel::action_id id = 1; id <= n; ++id) {
    out += reg.name_of(id);
    out += '\n';
  }
  return out;
}

using wire_tuple =
    std::tuple<std::uint64_t, std::uint32_t, std::uint8_t, std::uint8_t,
               std::uint8_t, std::uint8_t, std::uint8_t, std::string>;

}  // namespace

// Wire-relevant knobs every rank must agree on: ranks coalescing with
// different flush thresholds, dropping at different forward bounds, or
// disagreeing on whether the rebalancer moves objects would behave "the
// same program, different machine".  Rank 0's resolved values (and
// its action table, for verification) ride the bootstrap table reply.
std::vector<std::byte> runtime::encode_wire_params() const {
  return util::to_bytes(wire_tuple(
      static_cast<std::uint64_t>(params_.parcel_flush_bytes),
      params_.parcel_flush_count,
      static_cast<std::uint8_t>(params_.max_forwards),
      static_cast<std::uint8_t>(eager_flush_ ? 1 : 0),
      static_cast<std::uint8_t>(params_.rebalance != 0 ? 1 : 0),
      static_cast<std::uint8_t>(params_.trace != 0 ? 1 : 0),
      static_cast<std::uint8_t>(params_.stats != 0 ? 1 : 0),
      action_table_snapshot()));
}

void runtime::apply_wire_params(std::span<const std::byte> blob) {
  const auto t = util::from_bytes<wire_tuple>(blob);
  params_.parcel_flush_bytes = static_cast<std::size_t>(std::get<0>(t));
  params_.parcel_flush_count = std::get<1>(t);
  params_.max_forwards = std::get<2>(t);
  eager_flush_ = std::get<3>(t) != 0;
  params_.rebalance = std::get<4>(t);
  // Tracing and stats are machine-wide or not at all: the clock-sync
  // collective and the per-parcel wire extensions all assume every rank
  // agrees.
  params_.trace = std::get<5>(t);
  params_.stats = std::get<6>(t);
  PX_ASSERT_MSG(std::get<7>(t) == action_table_snapshot(),
                "ranks disagree on the registered action table — all ranks "
                "must run the same binary, and actions used cross-process "
                "must be registered eagerly (PX_REGISTER_ACTION)");
}

}  // namespace px::core
