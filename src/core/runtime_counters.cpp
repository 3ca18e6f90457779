// The runtime's observation plane: the counter schema every rank
// registers at boot, and the telemetry shard that exports its movement.
#include <atomic>
#include <mutex>
#include <string>

#include "core/action.hpp"
#include "core/runtime.hpp"
#include "lco/lco.hpp"
#include "patterns/counters.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"
#include "util/shard_writer.hpp"

namespace px::core {

// Every load-bearing runtime quantity becomes a first-class, gid-named,
// path-addressable counter (paper: hardware resources are typed first-class
// entities).  Schema: runtime/loc<i>/<subsystem>/<metric> for per-locality
// counters, runtime/<service>/<metric> for machine-global ones (homed at
// locality 0, which hosts the global services).
//
// Distributed mode replays this *identical* registration sequence in every
// process: a row whose home this process does not host (another rank's
// locality slot, the globals on non-zero ranks) registers sampler-less via
// add_remote, so counter gids allocate in the same order machine-wide and
// any rank can query any other's counters by path or gid
// (introspect::query_counter pays a parcel round trip to the home rank,
// whose registry holds the live callback).  Samplers capture pointers that
// are null on remote rows and dereference them only when called.
void runtime::register_counters() {
  auto& reg = introspect_;
  net::transport* t = transport_;
  const auto own_ep = static_cast<net::endpoint_id>(rank_);

  for (std::size_t i = 0; i < localities_.size(); ++i) {
    const auto lid = static_cast<gas::locality_id>(i);
    locality* loc = localities_[i].get();
    parcel_port* port = ports_[i].get();
    const auto ep = static_cast<net::endpoint_id>(i);
    const std::string p = "runtime/loc" + std::to_string(i);
    const bool hosted = loc != nullptr;
    auto row = [&](const std::string& path, introspect::sample_fn fn) {
      if (hosted) {
        reg.add(lid, p + path, std::move(fn));
      } else {
        reg.add_remote(lid, p + path);
      }
    };
    auto hist_row = [&](const std::string& path, introspect::hist_fn fn) {
      if (hosted) {
        reg.add_hist(lid, p + path, std::move(fn));
      } else {
        reg.add_remote(lid, p + path);
      }
    };

    row("/sched/ready_depth",
        [loc] { return loc->sched().ready_estimate(); });
    row("/sched/live_threads",
        [loc] { return loc->sched().live_threads(); });
    row("/sched/spawned", [loc] { return loc->sched().spawn_count(); });
    row("/sched/steals", [loc] { return loc->sched().stats().steals; });
    row("/sched/suspends", [loc] { return loc->sched().stats().suspends; });
    row("/sched/sleeps", [loc] { return loc->sched().stats().sleeps; });

    row("/parcels/sent", [loc] { return loc->stats().parcels_sent; });
    row("/parcels/delivered",
        [loc] { return loc->stats().parcels_delivered; });
    row("/parcels/forwarded",
        [loc] { return loc->stats().parcels_forwarded; });
    row("/parcels/dropped", [loc] { return loc->stats().parcels_dropped; });

    row("/port/pending", [port] { return port->pending(); });
    row("/port/enqueued", [port] { return port->enqueued_total(); });
    row("/port/frames_sent", [port] { return port->stats().frames_sent; });
    row("/port/eager_flushes",
        [port] { return port->stats().eager_flushes; });

    row("/fabric/parcels_sent",
        [t, ep] { return t->stats(ep).parcels_sent; });

    // Per-locality wire totals (PR 4): what this endpoint's transport put
    // on and took off the wire — the rebalancer's (and any dashboard's)
    // view of real-network traffic, not just the modeled fabric's.
    row("/net/bytes_tx", [t, ep] { return t->link(ep).bytes_tx; });
    row("/net/bytes_rx", [t, ep] { return t->link(ep).bytes_rx; });
    row("/net/msgs_tx", [t, ep] { return t->link(ep).msgs_tx; });
    row("/net/msgs_rx", [t, ep] { return t->link(ep).msgs_rx; });
    // Flight-recorder totals.  The recorder is a process singleton, so in
    // the sim shape every locality row reads the same process-wide value;
    // distributed (one locality per process) the row is genuinely
    // per-rank.
    row("/trace/events",
        [] { return trace::recorder::global().events_total(); });
    row("/trace/drops", [] { return trace::recorder::global().drops_total(); });
    // Telemetry distributions (populated only while PX_STATS is armed).
    // The registry slot reads the population count; quantiles go through
    // read_quantile / px.query_hist, and the stats sampler expands each
    // into per-quantile series.
    hist_row("/parcels/hist_dispatch_ns",
             [loc] { return loc->dispatch_hist_snapshot(); });
    hist_row("/sched/hist_run_ns",
             [loc] { return loc->sched().run_hist_snapshot(); });
    hist_row("/sched/hist_wait_ns",
             [loc] { return loc->sched().wait_hist_snapshot(); });
    // Sampler self-observation (like /trace/*: a process singleton read
    // through every locality row in the sim shape, genuinely per-rank
    // distributed).
    introspect::stats_collector* st = stats_.get();
    row("/stats/ticks", [st] { return st->ticks(); });
    row("/stats/dropped_points", [st] { return st->dropped_points(); });
    // Backend-specific rows (tcp: reconnects, direct_sends; shm:
    // ring_full_waits, wakeups; sim: none) — registered only when the
    // active backend actually maintains them, so the schema never carries
    // an always-zero row for a counter the backend cannot produce.  A
    // remote slot takes the names from this process's own endpoint
    // (sampling a remote endpoint's books locally would assert); every
    // rank runs the same backend, so the sequence still matches.
    const auto extras = t->extra_link_counters(hosted ? ep : own_ep);
    for (std::size_t k = 0; k < extras.size(); ++k) {
      row(std::string("/net/") + extras[k].name,
          [t, ep, k] { return t->extra_link_counters(ep)[k].value; });
    }
  }

  // Machine-global services, homed where they conceptually live (loc 0 ==
  // rank 0; other ranks register the same rows sampler-less).
  const bool home = !distributed_ || rank_ == 0;
  auto global = [&](const char* path, introspect::sample_fn fn) {
    if (home) {
      reg.add(0, path, std::move(fn));
    } else {
      reg.add_remote(0, path);
    }
  };
  auto raw = [](const std::atomic<std::uint64_t>& a) {
    return [&a] { return a.load(std::memory_order_relaxed); };
  };
  global("runtime/agas/binds", [this] { return agas_.stats().binds; });
  global("runtime/agas/cache_hits",
         [this] { return agas_.stats().cache_hits; });
  global("runtime/agas/cache_misses",
         [this] { return agas_.stats().cache_misses; });
  global("runtime/agas/migrations",
         [this] { return agas_.stats().migrations; });
  global("runtime/agas/stale_refreshes",
         [this] { return agas_.stats().stale_refreshes; });
  global("runtime/agas/hint_evictions",
         [this] { return agas_.stats().hint_evictions; });
  // Unique gids that can no longer resolve because they died with a lost
  // rank (docs/resilience.md); 0 for the whole life of a healthy machine.
  global("runtime/agas/gids_lost", [this] { return gids_lost(); });

  global("runtime/lco/depleted_threads",
         raw(lco::lco_counters::depleted_threads_created));
  global("runtime/lco/continuations",
         raw(lco::lco_counters::continuations_attached));
  global("runtime/lco/fires", raw(lco::lco_counters::fires));

  global("runtime/fabric/in_flight", [t] { return t->in_flight(); });

  rebalancer* bal = balancer_.get();
  global("runtime/rebalance/rounds", [bal] { return bal->stats().rounds; });
  global("runtime/rebalance/triggers",
         [bal] { return bal->stats().triggers; });
  global("runtime/rebalance/migrations",
         [bal] { return bal->stats().objects_migrated; });
  global("runtime/rebalance/redirects",
         [bal] { return bal->stats().placement_redirects; });
  global("runtime/rebalance/imbalance_milli", [bal] {
    return static_cast<std::uint64_t>(bal->stats().last_imbalance * 1000.0);
  });

  // Pattern-library counters (src/patterns): process-wide statics, homed at
  // rank 0 like the other global services.
  global("runtime/patterns/pipelines",
         raw(patterns::pattern_counters::pipelines_built));
  global("runtime/patterns/pipeline_items",
         raw(patterns::pattern_counters::pipeline_items));
  global("runtime/patterns/map_reduce_jobs",
         raw(patterns::pattern_counters::map_reduce_jobs));
  global("runtime/patterns/map_tasks",
         raw(patterns::pattern_counters::map_tasks));
  global("runtime/patterns/pool_tasks",
         raw(patterns::pattern_counters::pool_tasks));
  global("runtime/patterns/nested",
         raw(patterns::pattern_counters::nested_patterns));
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

}  // namespace px::core
