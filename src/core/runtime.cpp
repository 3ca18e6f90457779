#include "core/runtime.hpp"

#include <mutex>
#include <string>
#include <tuple>

#include "core/action.hpp"
#include "core/echo.hpp"
#include "core/percolation.hpp"
#include "lco/lco.hpp"
#include "net/bootstrap.hpp"
#include "net/shm_transport.hpp"
#include "net/tcp_transport.hpp"
#include "patterns/counters.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/serialize.hpp"
#include "util/shard_writer.hpp"

namespace px::core {

// Built-in continuation target: fire a single-shot LCO sink.  Runs on the
// fabric progress thread by design — firing a future is enqueue-only work
// and skipping the thread spawn keeps continuation latency minimal.
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
runtime_params resolve_net(runtime_params p) {
  util::config cfg;
  cfg.load_environment();
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

}  // namespace

runtime::runtime(runtime_params params)
    : params_(resolve_net(std::move(params))),
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
  {
    util::config cfg;
    cfg.load_environment();
    if (params_.parcel_flush_bytes == 0) {
      params_.parcel_flush_bytes = static_cast<std::size_t>(cfg.get_int(
          "parcel.flush_bytes", static_cast<std::int64_t>(pp.flush_bytes)));
    }
    if (params_.parcel_flush_count == 0) {
      params_.parcel_flush_count = static_cast<std::uint32_t>(cfg.get_int(
          "parcel.flush_count", static_cast<std::int64_t>(pp.flush_count)));
    }
    eager_flush_ = params_.parcel_eager_flush < 0
                       ? cfg.get_bool("parcel.eager_flush", true)
                       : params_.parcel_eager_flush != 0;
    rp.enabled = params_.rebalance < 0 ? cfg.get_bool("rebalance", false)
                                       : params_.rebalance != 0;
    rp.threshold = params_.rebalance_threshold > 0.0
                       ? params_.rebalance_threshold
                       : cfg.get_double("rebalance.threshold", rp.threshold);
    rp.min_depth =
        params_.rebalance_min_depth > 0
            ? params_.rebalance_min_depth
            : static_cast<std::uint32_t>(cfg.get_int(
                  "rebalance.min_depth",
                  static_cast<std::int64_t>(rp.min_depth)));
    rp.max_migrations =
        params_.rebalance_max_migrations > 0
            ? params_.rebalance_max_migrations
            : static_cast<std::uint32_t>(cfg.get_int(
                  "rebalance.max_migrations",
                  static_cast<std::int64_t>(rp.max_migrations)));
    rp.interval_us =
        params_.rebalance_interval_us > 0
            ? params_.rebalance_interval_us
            : static_cast<std::uint64_t>(cfg.get_int(
                  "rebalance.interval_us",
                  static_cast<std::int64_t>(rp.interval_us)));
    if (params_.trace < 0) {
      params_.trace = cfg.get_bool("trace", false) ? 1 : 0;
    } else {
      params_.trace = params_.trace != 0 ? 1 : 0;
    }
    if (params_.trace_ring_bytes == 0) {
      params_.trace_ring_bytes = static_cast<std::size_t>(
          cfg.get_int("trace.ring_bytes", 1 << 20));
    }
    if (params_.stats < 0) {
      params_.stats = cfg.get_bool("stats", false) ? 1 : 0;
    } else {
      params_.stats = params_.stats != 0 ? 1 : 0;
    }
    if (params_.stats_interval_us == 0) {
      params_.stats_interval_us =
          static_cast<std::uint64_t>(cfg.get_int("stats.interval_us", 10'000));
    }
    if (params_.telemetry_dir.empty()) {
      params_.telemetry_dir = cfg.get_string("telemetry.dir", ".");
    }
  }
  // Normalize the resolved toggles into params_ so rank 0's wire blob
  // carries them (apply_wire_params overwrites them on other ranks — the
  // whole machine must agree on routing/forwarding/rebalance behavior).
  params_.rebalance = rp.enabled ? 1 : 0;

  threads::scheduler_params sp;
  sp.workers = params_.workers_per_locality;
  sp.stack_bytes = params_.stack_bytes;
  // Threads on this host that may spin at once, counted here once for both
  // spin choices (the workers' idle spin and the shm receiver's): every
  // locality's workers, plus each rank's shm progress thread.  tcp's
  // progress thread blocks in poll(2) and the sim fabric's on a condition
  // variable, so neither is counted.
  const auto n = static_cast<unsigned>(params_.localities);
  const bool shm = params_.net.backend == "shm";
  sp.host_threads = n * sp.workers + (shm ? n : 0);
  const bool host_has_cores = util::spin_pays(sp.host_threads);

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
      util::config shm_cfg;
      shm_cfg.load_environment();
      net::shm_params sp;
      sp.rank = rank_;
      sp.nranks = static_cast<std::uint32_t>(params_.localities);
      sp.ring_bytes = static_cast<std::size_t>(shm_cfg.get_int(
          "shm.ring_bytes", static_cast<std::int64_t>(sp.ring_bytes)));
      sp.spin_us = shm_cfg.get_int("shm.spin_us", host_has_cores ? 50 : 2);
      dist_ = std::make_unique<net::shm_transport>(sp);
    }
    // Resilience knobs + fault plan resolve from this rank's own
    // environment: the heartbeat/lease must be live *before* the wire-params
    // exchange (a rank that dies mid-boot must not hang the others), so
    // they cannot ride rank 0's blob; launchers set them uniformly.
    util::config rcfg;
    rcfg.load_environment();
    net::bootstrap_params bp;
    bp.rank = rank_;
    bp.nranks = static_cast<std::uint32_t>(params_.localities);
    bp.root = params_.net.root;
    bp.heartbeat_interval_us = static_cast<std::uint64_t>(rcfg.get_int(
        "heartbeat.interval_us",
        static_cast<std::int64_t>(bp.heartbeat_interval_us)));
    bp.lease_ms = static_cast<std::uint64_t>(
        rcfg.get_int("lease.ms", static_cast<std::int64_t>(bp.lease_ms)));
    if (rcfg.contains("fault")) {
      const std::string spec = rcfg.get_string("fault", "");
      const auto plan = util::fault_plan::parse(spec);
      PX_ASSERT_MSG(plan.has_value(),
                    "PX_FAULT does not parse — a fault plan that cannot arm "
                    "must refuse to run, not silently do nothing");
      fault_ = std::make_unique<util::fault_injector>(
          plan->for_rank(static_cast<std::uint64_t>(rank_)),
          static_cast<std::uint64_t>(rank_));
      if (!fault_->empty()) dist_->arm_faults(fault_.get());
    }
    // Locally-detected link deaths (tcp EOF, shm pid probe) feed the same
    // funnel as the control plane's lease expiry.  Installed before
    // connect_peers per the transport contract; until survive mode is
    // armed below, the funnel's bootstrap leg makes any death fatal.
    dist_->set_peer_death_handler([this](std::size_t r) {
      note_peer_failure(static_cast<gas::locality_id>(r));
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
      monitors_.push_back(nullptr);
      continue;
    }
    const auto ep = static_cast<net::endpoint_id>(i);
    transport_->set_handler(ep, [this](net::message& m) {
      deliver_from_fabric(m);
    });
    ports_.push_back(std::make_unique<parcel_port>(*transport_, ep, pp));
    monitors_.push_back(
        std::make_unique<introspect::monitor>(localities_[i]->sched_));
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
    // half-full frames (communication fills the compute troughs), samples
    // its own load (decaying the monitor signal toward idle), and gives
    // the rebalancer a rate-limited chance to pull work its way.
    localities_[i]->sched_.set_idle_hook(
        [port = ports_[i].get(), mon = monitors_[i].get(),
         bal = balancer_.get()] {
          port->flush_all();
          mon->tick();
          bal->poll();
        });
  }
  // Backstop: if every worker of a locality is pinned busy (or asleep with
  // the inject path quiet), the transport progress thread flushes,
  // samples, and rebalances for them — the overloaded locality never runs
  // its own idle hook, so this is the path that observes it.
  transport_->set_idle_callback([this] {
    for (auto& port : ports_) {
      if (port != nullptr) port->flush_all();
    }
    for (auto& mon : monitors_) {
      if (mon != nullptr) mon->tick();
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
    // point is survivable — the handler funnels into note_peer_failure.
    bootstrap_->set_peer_down_handler([this](std::uint32_t r) {
      note_peer_failure(static_cast<gas::locality_id>(r));
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

// Every load-bearing runtime quantity becomes a first-class, gid-named,
// path-addressable counter (paper: hardware resources are typed first-class
// entities).  Schema: runtime/loc<i>/<subsystem>/<metric> for per-locality
// counters, runtime/<service>/<metric> for machine-global ones (homed at
// locality 0, which hosts the global services).
//
// Distributed mode replays the *identical* registration sequence in every
// process — locality slots this process doesn't host (and the globals on
// non-zero ranks) register sampler-less via add_remote — so counter gids
// allocate in the same order machine-wide and any rank can query any
// other's counters by path or gid (introspect::query_counter pays a parcel
// round trip to the home rank, whose registry holds the live callback).
// Keep both arms of the branch below in lock-step when adding counters.
void runtime::register_counters() {
  // Per-locality schema, in registration order (remote replay).
  static constexpr const char* kLocalitySchema[] = {
      "/sched/ready_depth", "/sched/live_threads", "/sched/spawned",
      "/sched/steals", "/sched/suspends", "/sched/sleeps",
      "/parcels/sent", "/parcels/delivered", "/parcels/forwarded",
      "/parcels/dropped", "/port/pending", "/port/enqueued",
      "/port/frames_sent", "/port/eager_flushes", "/fabric/frames_sent",
      "/fabric/parcels_sent", "/fabric/bytes_sent",
      "/monitor/ready_ewma_milli", "/monitor/samples", "/net/bytes_tx",
      "/net/bytes_rx", "/net/msgs_tx", "/net/msgs_rx", "/trace/events",
      "/trace/drops", "/parcels/hist_dispatch_ns", "/sched/hist_run_ns",
      "/sched/hist_wait_ns", "/sched/hist_ready_depth", "/stats/ticks",
      "/stats/dropped_points"};

  for (std::size_t i = 0; i < localities_.size(); ++i) {
    const auto lid = static_cast<gas::locality_id>(i);
    locality* loc = localities_[i].get();
    parcel_port* port = ports_[i].get();
    introspect::monitor* mon = monitors_[i].get();
    const std::string p = "runtime/loc" + std::to_string(i);
    auto& reg = introspect_;

    if (loc == nullptr) {  // remote rank: schema without samplers
      for (const char* path : kLocalitySchema) reg.add_remote(lid, p + path);
      // Backend-specific rows replay by *name* (sampling a remote
      // endpoint's books locally would assert); every rank runs the same
      // backend, so the positional gid sequence still matches.
      const auto own_ep = static_cast<net::endpoint_id>(rank_);
      for (const auto& c : transport_->extra_link_counters(own_ep)) {
        reg.add_remote(lid, p + "/net/" + c.name);
      }
      continue;
    }

    threads::scheduler& sched = loc->sched();
    reg.add(lid, p + "/sched/ready_depth",
            [&sched] { return sched.ready_estimate(); });
    reg.add(lid, p + "/sched/live_threads",
            [&sched] { return sched.live_threads(); });
    reg.add(lid, p + "/sched/spawned",
            [&sched] { return sched.spawn_count(); });
    reg.add(lid, p + "/sched/steals",
            [&sched] { return sched.stats().steals; });
    reg.add(lid, p + "/sched/suspends",
            [&sched] { return sched.stats().suspends; });
    reg.add(lid, p + "/sched/sleeps",
            [&sched] { return sched.stats().sleeps; });

    reg.add(lid, p + "/parcels/sent",
            [loc] { return loc->stats().parcels_sent; });
    reg.add(lid, p + "/parcels/delivered",
            [loc] { return loc->stats().parcels_delivered; });
    reg.add(lid, p + "/parcels/forwarded",
            [loc] { return loc->stats().parcels_forwarded; });
    reg.add(lid, p + "/parcels/dropped",
            [loc] { return loc->stats().parcels_dropped; });

    reg.add(lid, p + "/port/pending", [port] { return port->pending(); });
    reg.add(lid, p + "/port/enqueued",
            [port] { return port->enqueued_total(); });
    reg.add(lid, p + "/port/frames_sent",
            [port] { return port->stats().frames_sent; });
    reg.add(lid, p + "/port/eager_flushes",
            [port] { return port->stats().eager_flushes; });

    net::transport* t = transport_;
    const auto ep = static_cast<net::endpoint_id>(i);
    reg.add(lid, p + "/fabric/frames_sent",
            [t, ep] { return t->stats(ep).messages_sent; });
    reg.add(lid, p + "/fabric/parcels_sent",
            [t, ep] { return t->stats(ep).parcels_sent; });
    reg.add(lid, p + "/fabric/bytes_sent",
            [t, ep] { return t->stats(ep).bytes_sent; });

    reg.add(lid, p + "/monitor/ready_ewma_milli",
            [mon] { return mon->ready_ewma_milli(); });
    reg.add(lid, p + "/monitor/samples",
            [mon] { return mon->samples_taken(); });

    // Per-locality wire totals (PR 4): what this endpoint's transport put
    // on and took off the wire — the rebalancer's (and any dashboard's)
    // view of real-network traffic, not just the modeled fabric's.
    reg.add(lid, p + "/net/bytes_tx",
            [t, ep] { return t->link(ep).bytes_tx; });
    reg.add(lid, p + "/net/bytes_rx",
            [t, ep] { return t->link(ep).bytes_rx; });
    reg.add(lid, p + "/net/msgs_tx",
            [t, ep] { return t->link(ep).msgs_tx; });
    reg.add(lid, p + "/net/msgs_rx",
            [t, ep] { return t->link(ep).msgs_rx; });
    // Flight-recorder totals.  The recorder is a process singleton, so in
    // the sim shape every locality row reads the same process-wide value;
    // distributed (one locality per process) the row is genuinely
    // per-rank.  Registered before the backend extras to keep positional
    // gid order identical to the remote replay above.
    reg.add(lid, p + "/trace/events",
            [] { return trace::recorder::global().events_total(); });
    reg.add(lid, p + "/trace/drops",
            [] { return trace::recorder::global().drops_total(); });
    // Telemetry distributions (populated only while PX_STATS is armed).
    // The registry slot reads the population count; quantiles go through
    // read_quantile / px.query_hist, and the stats sampler expands each
    // into per-quantile series.  Histogram gids are positional like every
    // other counter, so the remote arm replays them with plain add_remote.
    reg.add_hist(lid, p + "/parcels/hist_dispatch_ns",
                 [loc] { return loc->dispatch_hist_snapshot(); });
    reg.add_hist(lid, p + "/sched/hist_run_ns",
                 [&sched] { return sched.run_hist_snapshot(); });
    reg.add_hist(lid, p + "/sched/hist_wait_ns",
                 [&sched] { return sched.wait_hist_snapshot(); });
    reg.add_hist(lid, p + "/sched/hist_ready_depth",
                 [mon] { return mon->depth_hist_snapshot(); });
    // Sampler self-observation (like /trace/*: a process singleton read
    // through every locality row in the sim shape, genuinely per-rank
    // distributed).
    introspect::stats_collector* st = stats_.get();
    reg.add(lid, p + "/stats/ticks", [st] { return st->ticks(); });
    reg.add(lid, p + "/stats/dropped_points",
            [st] { return st->dropped_points(); });
    // Backend-specific rows (tcp: reconnects, direct_sends; shm:
    // ring_full_waits, wakeups; sim: none) — registered only when the
    // active backend actually maintains them, so the schema never carries
    // an always-zero row for a counter the backend cannot produce.
    const auto extras = t->extra_link_counters(ep);
    for (std::size_t k = 0; k < extras.size(); ++k) {
      reg.add(lid, p + "/net/" + extras[k].name,
              [t, ep, k] { return t->extra_link_counters(ep)[k].value; });
    }
  }

  // Machine-global services, homed where they conceptually live (loc 0 ==
  // rank 0; other ranks replay the schema sampler-less).
  auto& reg = introspect_;
  if (distributed_ && rank_ != 0) {
    for (const char* path :
         {"runtime/agas/binds", "runtime/agas/cache_hits",
          "runtime/agas/cache_misses", "runtime/agas/migrations",
          "runtime/agas/stale_refreshes", "runtime/agas/hint_evictions",
          "runtime/agas/gids_lost",
          "runtime/lco/depleted_threads",
          "runtime/lco/continuations", "runtime/lco/fires",
          "runtime/fabric/in_flight", "runtime/rebalance/rounds",
          "runtime/rebalance/triggers", "runtime/rebalance/migrations",
          "runtime/rebalance/redirects",
          "runtime/rebalance/imbalance_milli",
          "runtime/patterns/pipelines", "runtime/patterns/pipeline_items",
          "runtime/patterns/map_reduce_jobs", "runtime/patterns/map_tasks",
          "runtime/patterns/pool_tasks", "runtime/patterns/nested"}) {
      reg.add_remote(0, path);
    }
    return;
  }
  reg.add(0, "runtime/agas/binds", [this] { return agas_.stats().binds; });
  reg.add(0, "runtime/agas/cache_hits",
          [this] { return agas_.stats().cache_hits; });
  reg.add(0, "runtime/agas/cache_misses",
          [this] { return agas_.stats().cache_misses; });
  reg.add(0, "runtime/agas/migrations",
          [this] { return agas_.stats().migrations; });
  reg.add(0, "runtime/agas/stale_refreshes",
          [this] { return agas_.stats().stale_refreshes; });
  reg.add(0, "runtime/agas/hint_evictions",
          [this] { return agas_.stats().hint_evictions; });
  // Unique gids that can no longer resolve because they died with a lost
  // rank (docs/resilience.md); 0 for the whole life of a healthy machine.
  reg.add(0, "runtime/agas/gids_lost", [this] { return gids_lost(); });

  reg.add_raw(0, "runtime/lco/depleted_threads",
              lco::lco_counters::depleted_threads_created);
  reg.add_raw(0, "runtime/lco/continuations",
              lco::lco_counters::continuations_attached);
  reg.add_raw(0, "runtime/lco/fires", lco::lco_counters::fires);

  reg.add(0, "runtime/fabric/in_flight",
          [this] { return transport_->in_flight(); });

  rebalancer* bal = balancer_.get();
  reg.add(0, "runtime/rebalance/rounds",
          [bal] { return bal->stats().rounds; });
  reg.add(0, "runtime/rebalance/triggers",
          [bal] { return bal->stats().triggers; });
  reg.add(0, "runtime/rebalance/migrations",
          [bal] { return bal->stats().objects_migrated; });
  reg.add(0, "runtime/rebalance/redirects",
          [bal] { return bal->stats().placement_redirects; });
  reg.add(0, "runtime/rebalance/imbalance_milli", [bal] {
    return static_cast<std::uint64_t>(bal->stats().last_imbalance * 1000.0);
  });

  // Pattern-library counters (src/patterns): process-wide statics, homed at
  // rank 0 like the other global services.
  reg.add_raw(0, "runtime/patterns/pipelines",
              patterns::pattern_counters::pipelines_built);
  reg.add_raw(0, "runtime/patterns/pipeline_items",
              patterns::pattern_counters::pipeline_items);
  reg.add_raw(0, "runtime/patterns/map_reduce_jobs",
              patterns::pattern_counters::map_reduce_jobs);
  reg.add_raw(0, "runtime/patterns/map_tasks",
              patterns::pattern_counters::map_tasks);
  reg.add_raw(0, "runtime/patterns/pool_tasks",
              patterns::pattern_counters::pool_tasks);
  reg.add_raw(0, "runtime/patterns/nested",
              patterns::pattern_counters::nested_patterns);
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

std::uint64_t runtime::dump_telemetry() {
  if (params_.trace == 0 && params_.stats == 0) return 0;
  std::lock_guard lock(dump_mu_);
  util::shard_writer w(static_cast<std::uint32_t>(rank_), clock_offset_ns_);
  trace::recorder::global().write_sections(w);
  w.begin(util::section_kind::counters);
  for (const auto& [path, delta] :
       introspect::registry::delta(boot_counters_, introspect_.snapshot_all())) {
    w.put_str(path);
    w.put_u64(static_cast<std::uint64_t>(delta));
  }
  stats_->write_sections(w);
  const std::string path = params_.telemetry_dir + "/px_telemetry." +
                           std::to_string(rank_) + ".bin";
  const std::uint64_t bytes = w.write(path);
  if (bytes == 0) PX_LOG_WARN("telemetry: cannot write shard %s", path.c_str());
  return bytes;
}

// Typed: the dump does file I/O, which has no place on the delivery
// thread.  Registered eagerly so action tables stay identical machine-wide
// whether or not a run ever triggers it.
std::uint64_t telemetry_dump_action() {
  return this_locality()->rt().dump_telemetry();
}
PX_REGISTER_ACTION_AS(telemetry_dump_action, "px.telemetry_dump")

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

gas::locality_id runtime::effective_home(gas::gid id) const noexcept {
  const gas::locality_id home = id.home();
  if (!distributed_) return home;
  const std::uint64_t mask = peer_dead_mask_.load(std::memory_order_acquire);
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
      // forward's piggyback or an explicit px.agas_resolve) short-circuits
      // the extra hop — unless it points at a casualty (purged on the
      // death verdict, but a racing read can still see one), and absent a
      // hint the parcel routes to the home, whose directory forwards it
      // onward — always correct, at most one hop stale.
      if (const auto hint = agas_.cached(rank_, id)) {
        if (((peer_dead_mask_.load(std::memory_order_acquire) >> *hint) &
             1u) == 0) {
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
  if (distributed_ && owner != rank_ &&
      ((peer_dead_mask_.load(std::memory_order_acquire) >> owner) & 1u) !=
          0) {
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
    // the collective converges minus the casualty (the control plane's
    // mask agreement keeps ranks with divergent views from quiescing).
    // A rank whose failure sweep (transport fold, directory re-homing,
    // gossip) has not caught up with the control plane's dead mask must
    // not report stable: the verdict would let peers resume sending while
    // this rank's directory still routes through the casualty.  The
    // bootstrap can flag a death (heartbeat EOF) strictly before the
    // peer-down handler finishes the sweep, so the mask comparison — not
    // the handler having been called — is the gate.  Two masks, because
    // the sweep's transport step is asynchronous: peer_swept_mask_ covers
    // the directory/gossip repairs done inline in note_peer_failure, and
    // the transport's folded mask covers the close fold that
    // mark_peer_dead only *queues* on the progress thread.  Requiring
    // both means the conservation books (parcels_lost, peer_failed) are
    // final for every casualty before a verdict can land.
    const std::uint64_t dead = bootstrap_->dead_mask();
    const bool swept =
        peer_swept_mask_.load(std::memory_order_acquire) == dead &&
        (dist_->folded_peer_mask() & dead) == dead;
    if (bootstrap_->quiesce_round(locally_stable && swept,
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

// -------------------------------------------------------------- migration

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
            const auto args =
                util::from_bytes<std::tuple<std::uint64_t, gas::locality_id>>(
                    pv.arguments());
            const std::uint8_t ok = loc->rt().apply_agas_update(
                gas::gid::from_bits(std::get<0>(args)), std::get<1>(args));
            send_continuation_reply(*loc, pv.cont(), util::to_bytes(ok));
          });
  return id;
}

// Eager: action ids are positional; every rank must mint this at boot.
[[maybe_unused]] const parcel::action_id k_agas_update_registration =
    agas_update_action_id();

// Death gossip: the first rank to confirm a casualty tells the others, so
// survivors that never exchanged a byte with the dead rank still fold it
// into their books (the control plane's kTagPeerDown covers ranks root
// reaches; this covers root learning from a non-root detector, and any
// rank the heartbeat hasn't timed out yet).  Raw-registered like px.sink:
// a death verdict is control plane and must not queue behind user fibers.
parcel::action_id peer_down_action_id() {
  static const parcel::action_id id =
      parcel::action_registry::global().register_action(
          "px.peer_down", +[](void* ctx, const parcel::parcel_view& pv) {
            auto* loc = static_cast<locality*>(ctx);
            const auto dead = util::from_bytes<std::uint32_t>(pv.arguments());
            loc->rt().note_peer_failure(
                static_cast<gas::locality_id>(dead));
          });
  return id;
}

// Eager: action ids are positional; every rank must mint this at boot.
[[maybe_unused]] const parcel::action_id k_peer_down_registration =
    peer_down_action_id();

}  // namespace

bool runtime::claim_migration(gas::gid id, std::string* type) {
  std::lock_guard lock(migrations_lock_);
  migration_entry& e = migrations_[id];
  if (e.in_flight) return false;
  e.in_flight = true;
  if (type != nullptr) *type = e.type;
  return true;
}

void runtime::release_migration(gas::gid id, bool retire) {
  std::lock_guard lock(migrations_lock_);
  const auto it = migrations_.find(id);
  PX_ASSERT(it != migrations_.end() && it->second.in_flight);
  // Retiring forgets the type with the copy: the destination re-tagged on
  // implant, and keeping ours would grow the table (and the rebalancer's
  // residency scans) with every object that ever passed through.
  if (retire || it->second.type.empty()) {
    migrations_.erase(it);
  } else {
    it->second.in_flight = false;
  }
}

void runtime::tag_migratable_object(gas::gid id, std::string type_name) {
  std::lock_guard lock(migrations_lock_);
  migrations_[id].type = std::move(type_name);
}

std::vector<gas::gid> runtime::migratable_residents(std::size_t max) const {
  std::vector<gas::gid> tagged;
  {
    std::lock_guard lock(migrations_lock_);
    tagged.reserve(migrations_.size());
    for (const auto& [id, e] : migrations_) {
      if (!e.type.empty()) tagged.push_back(id);
    }
  }
  // Residency check outside the table lock (has_object takes the object
  // table lock; never hold both).
  std::vector<gas::gid> out;
  const locality& here = *localities_[rank_];
  for (const auto id : tagged) {
    if (out.size() >= max) break;
    if (here.has_object(id)) out.push_back(id);
  }
  return out;
}

std::uint8_t runtime::apply_agas_update(gas::gid id,
                                        gas::locality_id new_owner) {
  // effective_home: after a rank loss this update may land at the
  // casualty's successor, whose adopted shard starts empty — hence the
  // tolerant rebind (upsert) instead of migrate's bound-entry assert.
  PX_ASSERT_MSG(!distributed_ || effective_home(id) == rank_,
                "px.agas_update landed off the home rank");
  agas_.rebind(id, new_owner);
  // Refresh this rank's own forwarding view too: routing from the home
  // should go straight to the new owner, not through a stale cache entry
  // that would bounce the parcel off the previous one.
  agas_.note_owner(rank_, id, new_owner);
  return 1;
}

// ------------------------------------------------------------- resilience

void runtime::note_peer_failure(gas::locality_id rank) {
  if (!distributed_ || rank == rank_ ||
      rank >= static_cast<gas::locality_id>(params_.localities)) {
    return;
  }
  const std::uint64_t bit = 1ull << rank;
  if (peer_dead_mask_.fetch_or(bit, std::memory_order_acq_rel) & bit) {
    return;  // a verdict for this casualty already ran the sweep
  }
  PX_LOG_WARN("rank %u: peer rank %u confirmed dead — continuing with "
              "reduced membership",
              static_cast<unsigned>(rank_), static_cast<unsigned>(rank));
  // (1) Ask the transport to fold the casualty into the conservation
  // books.  This only *requests* the fold: close_link queues the close on
  // the backend progress thread, so the books (parcels_lost freeze,
  // peer_failed) may settle after this function returns — which is why
  // wait_quiescent gates on the transport's folded mask in addition to
  // peer_swept_mask_ below.  (2) Tell the control plane: its dead mask
  // gates the quiesce verdict, and on rank 0 it broadcasts kTagPeerDown
  // to the other survivors.  Note: when the control plane or the
  // transport is what detected the death, the corresponding step is a
  // no-op (its mask is already set), which is also what breaks the
  // handler cycle.  (3) Repair the directory so routing keeps resolving.
  // (4) Gossip px.peer_down — the parcels route with the repaired view.
  dist_->mark_peer_dead(rank);
  bootstrap_->note_rank_dead(static_cast<std::uint32_t>(rank));
  rehome_gids_after_loss(rank);
  broadcast_peer_down(rank);
  // Directory sweep complete: wait_quiescent may report this casualty as
  // handled once it also sees the transport's folded bit (the close
  // queued in step (1) may still be in flight on the progress thread).
  peer_swept_mask_.fetch_or(bit, std::memory_order_release);
}

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

void runtime::rehome_gids_after_loss(gas::locality_id dead) {
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
  // adopts the casualty's shard index; possibly us).  Objects that were
  // *resident at* the casualty have nobody to speak for them — their first
  // parcel resolves unbound at the successor and is reported lost there.
  const gas::locality_id succ =
      effective_home(gas::gid::make(gas::gid_kind::data, dead, 1));
  for (const gas::gid id : here().resident_objects_homed_at(dead)) {
    if (succ == rank_) {
      agas_.rebind(id, rank_);
      agas_.note_owner(rank_, id, rank_);
      continue;
    }
    parcel::parcel p;
    p.destination = locality_gid(succ);
    p.action = agas_update_action_id();
    p.arguments = util::to_bytes(
        std::tuple<std::uint64_t, gas::locality_id>(id.bits(), rank_));
    here().send(std::move(p));
  }
}

void runtime::broadcast_peer_down(gas::locality_id dead) {
  const std::uint64_t mask = peer_dead_mask_.load(std::memory_order_acquire);
  for (std::size_t r = 0; r < params_.localities; ++r) {
    if (r == rank_ || ((mask >> r) & 1u) != 0) continue;
    parcel::parcel p;
    p.destination = locality_gid(static_cast<gas::locality_id>(r));
    p.action = peer_down_action_id();
    p.arguments = util::to_bytes(static_cast<std::uint32_t>(dead));
    here().send(std::move(p));
  }
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
  // Claim the gid for the whole implant, *including* the home round trip:
  // the object must not be eligible for an onward migration until the
  // home has acknowledged ours.  Without this, a chained A->B->C handoff
  // could put B's and C's px.agas_update parcels on different connections
  // and the home could apply them out of order, leaving the directory
  // pointing at a rank that already retired its copy — a permanently
  // stranded object.  Serializing handoff N+1 behind handoff N's home ack
  // makes directory-update application order follow real time.
  const bool claimed = claim_migration(id, nullptr);
  PX_ASSERT_MSG(claimed,
                "migration implant for a gid already mid-handoff here");
  tag_migratable_object(id, rec.type_name);
  // Implant before the directory flips: from this moment a parcel landing
  // here (raced ahead on a fresh hint) dispatches instead of bouncing.
  here().put_object(id, std::move(obj));
  // effective_home: if the gid's encoded home died, the directory flip
  // goes to (or happens at) the adopted shard's successor instead.
  const gas::locality_id dir_home = effective_home(id);
  if (dir_home == rank_) {
    apply_agas_update(id, rank_);
  } else {
    lco::promise<std::uint8_t> prom;
    auto fut = prom.get_future();
    const parcel::continuation cont =
        make_promise_sink<std::uint8_t>(here(), std::move(prom));
    parcel::parcel p;
    p.destination = locality_gid(dir_home);
    p.action = agas_update_action_id();
    p.cont = cont;
    p.arguments = util::to_bytes(
        std::tuple<std::uint64_t, gas::locality_id>(id.bits(), rank_));
    here().send(std::move(p));
    const std::uint8_t ok = fut.get();
    PX_ASSERT_MSG(ok == 1, "home rank refused the directory update");
  }
  agas_.note_owner(rank_, id, rank_);
  release_migration(id, false);
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
  if (id.kind() != gas::gid_kind::data || from == to ||
      from >= params_.localities || to >= params_.localities ||
      localities_[from] == nullptr) {
    return false;
  }
  // (1) Claim the gid: a concurrent second move is rejected, not queued.
  std::string type;
  if (!claim_migration(id, &type)) return false;
  // (2) Under the claim, `from` must still hold the object, and state that
  // crosses a process boundary needs a registered codec.
  auto obj = at(from).get_object(id);
  const bool same_process = localities_[to] != nullptr;
  const parcel::migratable_registry::vtable* vt =
      same_process ? nullptr
                   : parcel::migratable_registry::global().find(type);
  if (obj == nullptr || (!same_process && vt == nullptr)) {
    release_migration(id, false);
    return false;
  }
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
    release_migration(id, !same_process);
    if (done) done(true);
  };
  if (same_process) {
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
  rec.type_name = std::move(type);
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
