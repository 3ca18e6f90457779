// REBAL-1: adaptive rebalancing vs static placement on a skewed hot-spot
// workload (paper §2.1: starvation "caused either due to inadequate
// program parallelism or due to poor load balancing", answered by the
// model's dynamic adaptive resource management).
//
// Workload: M hot data objects, all initially bound at locality 0; each
// object carries a chain of D message-driven hops, every hop performing a
// fixed *service* at the object's current owner before re-sending to the
// same gid.  The service is latency-bound (a short compute slice plus a
// blocking hold of the execution site — the paper's "L": waiting on a slow
// resource), so completion time is governed by the deepest service queue,
// not by aggregate CPU; the experiment is therefore meaningful on any host
// core count, including single-core CI runners.
//
// With the rebalancer off, every hop lands on locality 0 and the other
// execution sites starve behind it.  With it on, the schedulers' ready
// depths expose the skew, hot objects migrate away
// (runtime::migrate_gid_async + stale-cache forwarding), and the chains
// follow their objects to the idle sites — completion approaches
// work/sites.
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/action.hpp"
#include "core/runtime.hpp"
#include "gas/gid.hpp"
#include "parcel/migration.hpp"
#include "util/subproc.hpp"
#include "util/table.hpp"

namespace {

using namespace px;

const std::size_t kLocalities = 4;
const int kObjects = bench::smoke_mode() ? 12 : 32;
const std::uint32_t kHops = bench::smoke_mode() ? 40 : 120;
constexpr double kSpinUs = 3.0;    // compute slice (CPU-bound)
constexpr double kBlockUs = 40.0;  // blocking hold of the execution site

std::atomic<std::uint64_t> hops_done{0};

void chain_hop(std::uint64_t gid_bits, std::uint32_t remaining) {
  bench::busy_spin_us(kSpinUs);
  // The slow-resource hold: blocks this worker (the execution site), so
  // queued hops behind it wait — exactly the starvation a deep queue
  // means.  A real machine would be stalled on memory or a device here.
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::micro>(kBlockUs));
  hops_done.fetch_add(1, std::memory_order_relaxed);
  if (remaining > 0) {
    core::apply<&chain_hop>(gas::gid::from_bits(gid_bits), gid_bits,
                            remaining - 1);
  }
}
PX_REGISTER_ACTION(chain_hop)

struct run_result {
  double ms = 0;
  std::uint64_t migrations = 0;
  std::uint64_t triggers = 0;
  std::vector<std::size_t> objects_per_locality;
};

run_result hot_spot_run(bool adaptive) {
  core::runtime_params p;
  p.localities = kLocalities;
  p.workers_per_locality = 1;
  p.rebalance = adaptive ? 1 : 0;
  p.rebalance_interval_us = 100;
  p.rebalance_min_depth = 4;
  core::runtime rt(p);

  std::vector<gas::gid> objs;
  for (int i = 0; i < kObjects; ++i) {
    objs.push_back(rt.new_object<int>(0, i));  // the hot spot: all at loc 0
  }

  hops_done.store(0);
  run_result res;
  rt.start();
  res.ms = bench::time_ms([&] {
    rt.run([&] {
      for (const auto id : objs) {
        core::apply<&chain_hop>(id, id.bits(), kHops - 1);
      }
    });
  });
  if (hops_done.load() !=
      static_cast<std::uint64_t>(kObjects) * kHops) {
    std::fprintf(stderr, "rebalance bench lost hops: %llu/%llu\n",
                 static_cast<unsigned long long>(hops_done.load()),
                 static_cast<unsigned long long>(
                     static_cast<std::uint64_t>(kObjects) * kHops));
  }
  const auto st = rt.balancer().stats();
  res.migrations = st.objects_migrated;
  res.triggers = st.triggers;
  for (std::size_t l = 0; l < kLocalities; ++l) {
    res.objects_per_locality.push_back(
        rt.at(static_cast<gas::locality_id>(l)).object_count());
  }
  rt.stop();
  return res;
}

// ------------------------------------------------- distributed mode
//
// PX_BENCH_DIST=1 turns this binary into a 4-process TCP benchmark: the
// same skewed chain workload, but the "localities" are real OS processes
// and migration is the PR 5 px.migrate_object handoff.  One runtime, one
// knob flipped per phase: the *static* phase binds the hot population
// with plain new_object (untagged — the rebalancer's sync checks reject
// them, pinning every chain to rank 0), the *adaptive* phase binds them
// with new_migratable, so the identical enabled rebalancer can actually
// ship them.  Rank 0 times each collective run and emits
// BENCH_rebalance_dist.json — the first cross-process datapoint in the
// rebalancing perf trajectory.

struct dist_obj {
  std::uint64_t v = 0;
  template <typename Ar>
  friend void serialize(Ar& ar, dist_obj& o) {
    ar& o.v;
  }
};
PX_REGISTER_MIGRATABLE(dist_obj)

constexpr std::size_t kDistMaxObjs = 32;
std::array<std::atomic<std::uint64_t>, kDistMaxObjs> g_dist_objs{};
void dist_announce(std::uint64_t slot, std::uint64_t bits) {
  g_dist_objs[slot].store(bits);
}
PX_REGISTER_ACTION(dist_announce)

std::atomic<std::uint64_t> g_dist_hops{0};
void dist_hop(std::uint64_t gid_bits, std::uint32_t remaining) {
  std::this_thread::sleep_for(std::chrono::microseconds(40));
  g_dist_hops.fetch_add(1);
  if (remaining > 0) {
    core::apply<&dist_hop>(gas::gid::from_bits(gid_bits), gid_bits,
                           remaining - 1);
  }
}
PX_REGISTER_ACTION(dist_hop)

std::uint64_t dist_hops_read() { return g_dist_hops.load(); }
PX_REGISTER_ACTION(dist_hops_read)

// One measured phase: create + announce the population (tagged migratable
// or not), seed the chains from rank 0, time the collective run, and
// verify no hop was lost machine-wide.  Returns the wall time at rank 0.
double dist_phase(core::runtime& rt, int objs, std::uint32_t hops,
                  bool migratable, int* rc) {
  const auto n = static_cast<std::uint32_t>(rt.num_localities());
  rt.run([&] {
    if (rt.rank() != 0) return;
    for (int i = 0; i < objs; ++i) {
      const gas::gid o =
          migratable
              ? rt.new_migratable<dist_obj>(0, static_cast<std::uint64_t>(i))
              : rt.new_object<dist_obj>(0, static_cast<std::uint64_t>(i));
      for (std::uint32_t r = 0; r < n; ++r) {
        core::apply<&dist_announce>(rt.locality_gid(r),
                                    static_cast<std::uint64_t>(i), o.bits());
      }
    }
  });

  const std::uint64_t hops_before = [&] {
    std::uint64_t total = 0;
    rt.run([&] {
      if (rt.rank() != 0) return;
      std::uint64_t t = 0;
      for (std::uint32_t r = 0; r < n; ++r) {
        t += core::async<&dist_hops_read>(rt.locality_gid(r)).get();
      }
      total = t;
    });
    return total;
  }();

  // The clock brackets the whole collective: seeding, chained hops,
  // migrations, and the global-quiescence verdict.
  const auto t0 = std::chrono::steady_clock::now();
  rt.run([&] {
    if (rt.rank() != 0) return;
    for (int i = 0; i < objs; ++i) {
      core::apply<&dist_hop>(gas::gid::from_bits(g_dist_objs[i].load()),
                             g_dist_objs[i].load(), hops - 1);
    }
  });
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

  rt.run([&] {
    if (rt.rank() != 0) return;
    std::uint64_t total = 0;
    for (std::uint32_t r = 0; r < n; ++r) {
      const std::uint64_t h =
          core::async<&dist_hops_read>(rt.locality_gid(r)).get();
      if (std::getenv("PX_BENCH_DEBUG")) {
        std::fprintf(stderr, "PHASE mig=%d rank %u hops_cum=%llu\n",
                     migratable ? 1 : 0, r, (unsigned long long)h);
      }
      total += h;
    }
    const std::uint64_t expect =
        hops_before + static_cast<std::uint64_t>(objs) * hops;
    if (total != expect) {
      std::fprintf(stderr,
                   "rebalance dist bench lost hops: %llu/%llu\n",
                   static_cast<unsigned long long>(total),
                   static_cast<unsigned long long>(expect));
      *rc = 1;
    }
  });
  return ms;
}

int dist_rank_main() {
  const int objs = bench::smoke_mode() ? 8 : 16;
  const std::uint32_t hops = bench::smoke_mode() ? 60 : 120;

  core::runtime_params p;  // tcp backend from the launcher's PX_NET_* env
  p.rebalance = 1;
  p.rebalance_min_depth = 3;
  p.rebalance_max_migrations = 8;
  p.rebalance_interval_us = 30;
  core::runtime rt(p);
  const auto n = static_cast<std::uint32_t>(rt.num_localities());

  int rc = 0;
  const double off_ms = dist_phase(rt, objs, hops, /*migratable=*/false, &rc);
  const double on_ms = dist_phase(rt, objs, hops, /*migratable=*/true, &rc);

  if (rt.rank() == 0) {
    const auto st = rt.balancer().stats();
    std::printf(
        "tcp 4-rank rebalance: static %.1f ms, adaptive %.1f ms "
        "(%.2fx, %llu cross-process migrations, %llu trigger rounds)\n",
        off_ms, on_ms, off_ms / on_ms,
        static_cast<unsigned long long>(st.objects_migrated),
        static_cast<unsigned long long>(st.triggers));
    bench::json_writer json;
    json.add("bench", std::string("rebalance_dist"));
    bench::add_metadata(json, "tcp");
    json.add("ranks", static_cast<std::int64_t>(n));
    json.add("objects", static_cast<std::int64_t>(objs));
    json.add("hops", static_cast<std::int64_t>(hops));
    json.add("static_ms", off_ms);
    json.add("adaptive_ms", on_ms);
    json.add("improvement", off_ms / on_ms);
    json.add("migrations", static_cast<std::int64_t>(st.objects_migrated));
    json.add("trigger_rounds", static_cast<std::int64_t>(st.triggers));
    json.add("smoke",
             static_cast<std::int64_t>(bench::smoke_mode() ? 1 : 0));
    json.write("BENCH_rebalance_dist.json");
  }
  rt.stop();
  return rc;
}

int dist_launcher_main() {
  const int nranks = 4;
  const int root_port = util::pick_free_tcp_port();
  std::printf(
      "REBAL-dist / adaptive rebalancing over 4 TCP ranks: launching\n");
  const std::vector<std::string> argv = {util::self_exe_path()};
  std::vector<pid_t> pids;
  for (int r = 0; r < nranks; ++r) {
    pids.push_back(
        util::spawn_process(argv, util::net_rank_env(r, nranks, root_port)));
  }
  int failures = 0;
  for (int r = 0; r < nranks; ++r) {
    if (util::wait_exit(pids[r]) != 0) failures += 1;
  }
  if (failures != 0) {
    std::fprintf(stderr, "rebalance dist bench: %d rank(s) failed\n",
                 failures);
    return 1;
  }
  return 0;
}

}  // namespace

int main() {
  using namespace px;
  if (std::getenv("PX_BENCH_DIST") != nullptr &&
      std::getenv("PX_BENCH_DIST")[0] != '0') {
    return std::getenv("PX_NET_RANK") != nullptr ? dist_rank_main()
                                                 : dist_launcher_main();
  }
  bench::banner(
      "REBAL-1 / adaptive rebalancing vs static hot spot (section 2.1)",
      "\"Starvation is the lack of work and therefore the idle cycles "
      "experienced by an execution site ... caused either due to inadequate "
      "program parallelism or due to poor load balancing.\"  Dynamic "
      "adaptive resource management is the model's answer.");

  // Best of two: rebalancing decisions are timing-dependent, scheduling
  // noise only adds.
  run_result off = hot_spot_run(false);
  run_result on = hot_spot_run(true);
  {
    const run_result off2 = hot_spot_run(false);
    if (off2.ms < off.ms) off = off2;
    run_result on2 = hot_spot_run(true);
    if (on2.ms < on.ms) on = std::move(on2);
  }

  util::text_table table({"rebalancer", "completion (ms)", "improvement",
                          "migrations", "trigger rounds"});
  table.add_row("off", off.ms, 1.0, static_cast<std::int64_t>(off.migrations),
                static_cast<std::int64_t>(off.triggers));
  table.add_row("on", on.ms, off.ms / on.ms,
                static_cast<std::int64_t>(on.migrations),
                static_cast<std::int64_t>(on.triggers));
  table.print(std::to_string(kObjects) + " hot objects x " +
              std::to_string(kHops) + " chained hops x (" +
              std::to_string(static_cast<int>(kSpinUs)) + "us compute + " +
              std::to_string(static_cast<int>(kBlockUs)) +
              "us blocking service), all bound at locality 0 of " +
              std::to_string(kLocalities));
  std::printf("%s", table.render_csv().c_str());

  std::printf("\nfinal object distribution (rebalancer on): ");
  for (std::size_t l = 0; l < on.objects_per_locality.size(); ++l) {
    std::printf("L%zu=%zu ", l, on.objects_per_locality[l]);
  }
  std::printf("\n");

  bench::json_writer json;
  json.add("bench", std::string("rebalance"));
  bench::add_metadata(json, "sim");
  json.add("objects", static_cast<std::int64_t>(kObjects));
  json.add("hops", static_cast<std::int64_t>(kHops));
  json.add("spin_us", kSpinUs);
  json.add("block_us", kBlockUs);
  json.add("localities", static_cast<std::int64_t>(kLocalities));
  json.add("off_ms", off.ms);
  json.add("on_ms", on.ms);
  json.add("improvement", off.ms / on.ms);
  json.add("migrations", static_cast<std::int64_t>(on.migrations));
  json.add("trigger_rounds", static_cast<std::int64_t>(on.triggers));
  json.add("smoke", static_cast<std::int64_t>(bench::smoke_mode() ? 1 : 0));
  json.write("BENCH_rebalance.json");

  std::printf(
      "\nshape check: with the rebalancer off, every chained hop lands on "
      "locality 0 (one site computes, three starve); with it on, hot "
      "objects migrate toward idle sites and completion approaches "
      "work/sites.\n");
  return 0;
}
