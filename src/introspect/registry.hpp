// Introspection counter registry: the runtime observing itself.
//
// Paper §2.1 frames ParalleX as "dynamic adaptive resource management"
// against the SLOW factors; nothing adapts without observation, so every
// interesting runtime quantity — scheduler ready depth, steal counts,
// parcel-port queue depths, fabric rates, AGAS hit/miss ratios, LCO event
// counts — registers here as a *first-class counter*.  A counter is a
// gid-addressable object (`gid_kind::hardware`, the paper's "hardware
// resources have their own names") bound in the AGAS directory and exposed
// under a hierarchical path in the symbolic name space, e.g.
//
//   runtime/loc3/sched/ready_depth
//   runtime/agas/cache_misses
//
// so any locality can discover counters by prefix listing and interrogate
// any other locality with a plain parcel (see introspect/query.hpp).
//
// Cost model: registration happens at runtime construction (spinlocked);
// reads take the same spinlock only to find the entry — the sample
// callbacks themselves are relaxed-atomic loads or O(workers) scans, so a
// sampler reading every counter steals microseconds, not milliseconds,
// from the execution sites it watches.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gas/agas.hpp"
#include "gas/gid.hpp"
#include "gas/name_service.hpp"
#include "util/histogram.hpp"
#include "util/spinlock.hpp"

namespace px::introspect {

// Samples the counter's current value.  Must be cheap, non-blocking, and
// callable from any thread (workers, the fabric progress thread, plain OS
// threads); must not call back into the registry.
using sample_fn = std::function<std::uint64_t()>;

// Samples a distribution counter: returns a detached point-in-time copy of
// the underlying log_histogram (the util::log_histogram::snapshot idiom).
// Same contract as sample_fn: cheap, non-blocking, no registry re-entry.
using hist_fn = std::function<util::log_histogram()>;

struct counter_info {
  std::string path;
  gas::gid id;
};

// One locally-sampled counter value at a point in time (snapshot_all).
struct counter_sample {
  std::string path;
  std::uint64_t value = 0;
};

// One locally-sampled histogram counter at a point in time (snapshot_hists).
struct hist_sample {
  std::string path;
  util::log_histogram hist;
};

class registry {
 public:
  registry(gas::agas& agas, gas::name_service& names);

  registry(const registry&) = delete;
  registry& operator=(const registry&) = delete;

  // Registers a sampled counter homed at locality `home` under `path`.
  // Allocates + binds a hardware gid (hardware gids never migrate, so the
  // home locality stays the single authority for the counter) and binds
  // the path in the symbolic name space.  Asserts on duplicate paths.
  gas::gid add(gas::locality_id home, std::string path, sample_fn fn);

  // Registers a counter that is *sampled elsewhere*: allocates and names
  // the gid exactly like add(), but installs no sampler (read() here
  // returns nullopt; query_counter routes to the home rank, whose registry
  // has the live callback).  Distributed mode replays the full machine-wide
  // counter schema through this in every process, which keeps boot-time
  // gid allocation sequences identical across ranks — the reason a rank
  // can name (and query) a remote counter without any directory traffic.
  gas::gid add_remote(gas::locality_id home, std::string path);

  // Registers a histogram-kind counter (a latency/depth *distribution*
  // rather than a scalar gauge).  Allocation, binding, and naming are
  // identical to add() — histogram counters take slots in the same
  // positional gid sequence, so distributed replay uses plain add_remote()
  // for them and the schema digest needs no kind bit.  read() on a
  // histogram counter reports its sample count; quantiles go through
  // read_quantile() / px.query_hist.
  gas::gid add_hist(gas::locality_id home, std::string path, hist_fn fn);

  // Samples a counter; nullopt for gids/paths that name no counter.
  // Histogram counters read as their cumulative sample count, so they
  // participate in snapshot_all()/delta() like any scalar.
  std::optional<std::uint64_t> read(gas::gid id) const;
  std::optional<std::uint64_t> read(std::string_view path) const;

  // Snapshot of a histogram counter's full distribution; nullopt for
  // scalar counters, unknown ids, and remote (replayed) entries.
  std::optional<util::log_histogram> read_hist(gas::gid id) const;
  std::optional<util::log_histogram> read_hist(std::string_view path) const;

  // Value at quantile q of a histogram counter, rounded to whole units
  // (ns for the runtime's latency hists); nullopt as read_hist.
  std::optional<std::uint64_t> read_quantile(gas::gid id, double q) const;
  std::optional<std::uint64_t> read_quantile(std::string_view path,
                                             double q) const;

  // Path -> gid through the name service (nullopt when the path is bound
  // to something that is not a counter).
  std::optional<gas::gid> find(std::string_view path) const;

  // All counters under `prefix` (name-service segment semantics), sampled
  // lazily by the caller via read().
  std::vector<counter_info> list(std::string_view prefix) const;

  // Samples every *locally-sampled* counter (add_remote entries are
  // skipped — their live callbacks belong to another rank) into a
  // path-sorted vector.  A pair of snapshots brackets a region of
  // interest; see delta().
  std::vector<counter_sample> snapshot_all() const;

  // Detached copies of every locally-sampled histogram counter, path-
  // sorted.  The stats_collector expands these into per-quantile series
  // each tick.
  std::vector<hist_sample> snapshot_hists() const;

  // Per-path value change between two snapshots (after - before), sorted
  // by path.  Paths present in only one snapshot count from/to zero, so a
  // counter registered between the snapshots still reports.  Values are
  // unsigned monotonic in practice but the delta is signed: a snapshot
  // taken across a runtime reset may legitimately go backwards.
  static std::vector<std::pair<std::string, std::int64_t>> delta(
      const std::vector<counter_sample>& before,
      const std::vector<counter_sample>& after);

  // Order-independent digest over every registered (path, gid) pair.
  // Distributed boot compares ranks' digests at the pre-traffic barrier:
  // counter gids are positional (allocation order), so a rank whose
  // schema drifted — an add() without the matching add_remote replay —
  // would silently read *neighboring* counters cross-process.  The digest
  // turns that into a loud bootstrap failure.
  std::uint64_t schema_digest() const;

 private:
  struct entry {
    std::string path;
    sample_fn sample;  // null for add_remote and add_hist entries
    hist_fn hist;      // non-null only for add_hist entries
  };

  // Shared allocate/bind/name/insert path; both fns null means remote.
  gas::gid register_entry(gas::locality_id home, std::string path,
                          sample_fn fn, hist_fn hfn = nullptr);

  gas::agas& agas_;
  gas::name_service& names_;

  mutable util::spinlock lock_;
  std::unordered_map<gas::gid, entry> counters_;
};

}  // namespace px::introspect
