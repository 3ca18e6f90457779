// Telemetry plane: continuous counter time series for the whole runtime.
//
// The counter registry (introspect/registry.hpp) answers "how much, right
// now"; the flight recorder (trace/trace.hpp) answers "where did this one
// request go".  This answers "how does the machine *evolve*": a background
// sampler thread snapshots every locally-sampled counter each tick into a
// per-counter bounded ring of {ts_ns, value} points, so rates, derivatives,
// and tail-latency quantiles are queryable live (and exportable for the
// `tools/px_telemetry.py fit` scaling models) without the application
// storing anything.
//
// Histogram counters (registry::add_hist) are expanded per tick into
// synthetic quantile series `<path>/p50 … /p999`, so e.g. the p99 parcel
// send→dispatch latency is itself a time series; the histogram's population
// count rides in the scalar snapshot under the histogram's own path.
//
// Cost model mirrors the flight recorder: always compiled in, armed by
// PX_STATS (period PX_STATS_INTERVAL_US); when disabled every
// instrumentation site pays exactly one relaxed load and a predicted
// branch — no clock read, no histogram lock.  The sampler itself never
// blocks runtime progress: rings overwrite their oldest point when full
// (counted in dropped_points), and sampling runs on a plain OS thread
// outside the scheduler, invisible to quiescence.
//
// Export: the collector owns no file.  runtime::dump_telemetry (at
// shutdown, or mid-run via the px.telemetry_dump action) writes its
// series as `sampler` + `series` sections of the rank's telemetry shard,
// beside the recorder's events (util/shard_writer.hpp); series are not
// drained, so a later dump carries a longer window.
// `tools/px_telemetry.py stats` merges the shards onto one timeline
// using the bootstrap-sampled clock offsets (docs/telemetry.md).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "introspect/registry.hpp"

namespace px::util {
class shard_writer;
}

namespace px::introspect {

namespace detail {
// Constant-initialized at namespace scope for the same reason as
// trace::detail::g_enabled: the disabled fast path in every
// instrumentation site (parcel deliver, scheduler run/wait)
// must be one relaxed load + branch, with no init-guard.
extern std::atomic<bool> g_stats_enabled;
}  // namespace detail

// True while some runtime's stats_collector is armed.  Instrumentation
// sites gate their clock reads and histogram adds on this.
inline bool stats_armed() noexcept {
  return detail::g_stats_enabled.load(std::memory_order_relaxed);
}

struct stats_params {
  bool enabled = false;
  std::uint64_t interval_us = 10'000;  // sampler period (PX_STATS_INTERVAL_US)
  std::size_t ring_points = 512;       // per-series ring capacity
};

// One sampled point of one counter's series.
struct series_point {
  std::int64_t ts_ns = 0;  // util::now_ns (per-process steady epoch)
  std::uint64_t value = 0;
};

class stats_collector {
 public:
  stats_collector(registry& reg, stats_params params);
  ~stats_collector();

  stats_collector(const stats_collector&) = delete;
  stats_collector& operator=(const stats_collector&) = delete;

  // Arms the global flag, takes the t=0 tick, and starts the sampler
  // thread.  No-op unless constructed with params.enabled.  Call once the
  // counter schema is final (after runtime counter registration).
  void arm();

  // Takes a final tick, stops + joins the sampler thread, and clears the
  // global flag.  Idempotent; also run by the destructor.
  void disarm();

  // One sampling pass over the registry (scalars + histogram quantiles),
  // appending a point to every series.  The sampler thread calls this each
  // period; tests (and write_sections, for freshness) call it directly.
  void tick_now();

  std::uint64_t ticks() const noexcept {
    return ticks_.load(std::memory_order_relaxed);
  }
  // Points overwritten because their ring was full (drop-the-oldest; the
  // window slides, the sampler never blocks or grows).
  std::uint64_t dropped_points() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  // The series recorded for `path`, oldest point first.  Histogram
  // quantile series are addressed as `<counter path>/p50|p95|p99|p999`.
  std::vector<series_point> window(std::string_view path) const;

  // Appends a `sampler` section (interval, ticks, dropped points) and one
  // `series` section per series to `w`, after a fresh tick while the
  // sampler runs, so a mid-run shard ends at dump time.  Non-destructive.
  // No-op unless constructed with params.enabled.
  void write_sections(util::shard_writer& w);

 private:
  struct series {
    std::vector<series_point> pts;  // ring storage, capacity ring_points
    std::size_t head = 0;           // next write slot
    std::size_t count = 0;          // live points (<= capacity)
    const series_point& at(std::size_t i) const {  // i-th oldest point
      return pts[(head + pts.size() - count + i) % pts.size()];
    }
  };

  void append(const std::string& path, std::int64_t ts, std::uint64_t value);
  void sampler_main();

  registry& reg_;
  stats_params params_;

  mutable std::mutex mu_;                // series map: sampler vs queries
  std::map<std::string, series> series_;

  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<std::uint64_t> dropped_{0};

  std::mutex wake_mu_;  // sampler sleep/stop handshake
  std::condition_variable wake_cv_;
  bool stop_ = false;
  bool running_ = false;
  std::thread sampler_;
};

// Quantiles expanded per tick for every histogram counter, as (suffix,
// q) pairs.
inline constexpr struct {
  const char* suffix;
  double q;
} k_hist_quantiles[] = {
    {"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}, {"p999", 0.999}};

}  // namespace px::introspect
