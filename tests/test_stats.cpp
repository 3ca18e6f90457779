// Stats sampler (src/introspect/stats.hpp): collector tick/ring/drop
// semantics, histogram counters and quantile-addressed queries, the
// px.telemetry_dump action, and the sampler and series sections of the
// telemetry shard — single-process and across real tcp/shm processes.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/action.hpp"
#include "core/runtime.hpp"
#include "distributed_helpers.hpp"
#include "introspect/query.hpp"
#include "introspect/stats.hpp"
#include "parcel/action_registry.hpp"
#include "parcel/parcel.hpp"
#include "telemetry_shard.hpp"
#include "threads/scheduler.hpp"
#include "util/serialize.hpp"

namespace {

using namespace px;
using core::runtime;
using core::runtime_params;

std::uint64_t stats_ping(std::uint64_t x) { return x + 1; }
PX_REGISTER_ACTION(stats_ping)

using test::file_exists;
using test::read_telemetry_shard;
using test::telemetry_shard;
using util::section_kind;

std::string fresh_dir(const std::string& tag) {
  const std::string dir =
      testing::TempDir() + "/px_stats_" + tag + "_" + std::to_string(::getpid());
  if (::mkdir(dir.c_str(), 0755) != 0) {
    EXPECT_EQ(errno, EEXIST) << "mkdir " << dir;
    for (int r = 0; r < 4; ++r) {
      std::remove((dir + "/px_telemetry." + std::to_string(r) + ".bin").c_str());
    }
  }
  return dir;
}

// --------------------------------------------------------------- collector

TEST(Stats, CollectorTickRingBoundAndDropSemantics) {
  runtime rt;  // sim, stats off: the runtime's own collector stays dormant
  introspect::stats_params prm;
  prm.enabled = true;
  prm.ring_points = 4;
  introspect::stats_collector col(rt.introspection(), prm);

  constexpr int kTicks = 10;
  for (int i = 0; i < kTicks; ++i) col.tick_now();
  EXPECT_EQ(col.ticks(), static_cast<std::uint64_t>(kTicks));

  // The ring keeps the newest `ring_points` points, oldest first, with
  // monotone timestamps; the overflow is counted, not blocked on.
  const auto win = col.window("runtime/loc0/parcels/sent");
  ASSERT_EQ(win.size(), 4u);
  for (std::size_t i = 1; i < win.size(); ++i) {
    EXPECT_GT(win[i].ts_ns, win[i - 1].ts_ns);
  }
  EXPECT_GT(col.dropped_points(), 0u);

  // Unknown series: empty window, no invented points.
  EXPECT_TRUE(col.window("runtime/loc0/no/such/series").empty());

  // The window spans wall-clock time, and a monotone counter never
  // shrinks across it.
  rt.run([&] {
    for (int i = 0; i < 32; ++i) core::this_locality()->spawn([] {});
  });
  col.tick_now();
  const auto spawned = col.window("runtime/loc0/sched/spawned");
  ASSERT_GE(spawned.size(), 2u);
  EXPECT_GT(spawned.back().ts_ns, spawned.front().ts_ns);
  EXPECT_GE(spawned.back().value, spawned.front().value);
  rt.stop();
}

TEST(Stats, ArmDisarmDrivesTheGlobalFlagAndSampler) {
  runtime rt;
  introspect::stats_params prm;
  prm.enabled = true;
  prm.interval_us = 1000;
  introspect::stats_collector col(rt.introspection(), prm);

  ASSERT_FALSE(introspect::stats_armed());
  col.arm();
  EXPECT_TRUE(introspect::stats_armed());
  // The sampler thread ticks on its own (t=0 tick plus periodic ones).
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(2);
  while (col.ticks() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(col.ticks(), 3u);
  col.disarm();
  EXPECT_FALSE(introspect::stats_armed());
  const std::uint64_t after = col.ticks();  // includes the closing tick
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(col.ticks(), after);  // sampler really joined

  // A disabled collector never arms the machine.
  introspect::stats_params off;
  off.enabled = false;
  introspect::stats_collector cold(rt.introspection(), off);
  cold.arm();
  EXPECT_FALSE(introspect::stats_armed());
  EXPECT_EQ(cold.ticks(), 0u);
  rt.stop();
}

// ----------------------------------------------- histogram counters + query

TEST(Stats, HistogramCountersSampleAndAnswerQuantiles) {
  const std::string dir = fresh_dir("hist");
  runtime_params prm;
  prm.localities = 2;
  prm.stats = 1;
  prm.stats_interval_us = 2000;
  prm.telemetry_dir = dir;
  runtime rt(prm);
  rt.run([&] {
    for (int i = 0; i < 50; ++i) {
      auto fut = core::async<&stats_ping>(rt.locality_gid(1),
                                          static_cast<std::uint64_t>(i));
      EXPECT_EQ(fut.get(), static_cast<std::uint64_t>(i) + 1);
    }
  });

  // The dispatch-latency histogram is a first-class registry counter:
  // read() reports its population, read_quantile its distribution.
  const auto pop =
      rt.introspection().read("runtime/loc1/parcels/hist_dispatch_ns");
  ASSERT_TRUE(pop.has_value());
  EXPECT_GE(*pop, 50u);
  const auto p50 = rt.introspection().read_quantile(
      "runtime/loc1/parcels/hist_dispatch_ns", 0.5);
  ASSERT_TRUE(p50.has_value());
  EXPECT_GT(*p50, 0u);
  // Scheduler run-time histograms populated too.
  EXPECT_GT(rt.introspection().read("runtime/loc0/sched/hist_run_ns").value(),
            0u);
  // Scalar counters are not quantile-addressable.
  EXPECT_FALSE(rt.introspection()
                   .read_quantile("runtime/loc0/parcels/sent", 0.5)
                   .has_value());

  // Cross-locality quantile query over the px.query_hist action.
  rt.run([&] {
    auto fut = introspect::query_hist(
        *core::this_locality(), "runtime/loc1/parcels/hist_dispatch_ns", 0.99);
    ASSERT_TRUE(fut.has_value());
    EXPECT_GT(fut->get(), 0u);
    // A scalar counter answers the sentinel instead of wedging the asker.
    auto scalar = introspect::query_hist(
        *core::this_locality(), "runtime/loc1/parcels/sent", 0.99);
    ASSERT_TRUE(scalar.has_value());
    EXPECT_EQ(scalar->get(), introspect::no_such_counter);
  });

  // The sampler expanded the histogram into per-quantile series.
  rt.telemetry().tick_now();
  EXPECT_FALSE(
      rt.telemetry()
          .window("runtime/loc1/parcels/hist_dispatch_ns/p99")
          .empty());
  rt.stop();

  // Shutdown wrote a shard whose series include the quantile expansion
  // (the reader checks magic and version).
  telemetry_shard shard;
  ASSERT_TRUE(read_telemetry_shard(dir + "/px_telemetry.0.bin", shard));
  EXPECT_EQ(shard.rank, 0u);
  EXPECT_EQ(shard.count(section_kind::sampler), 1u);
  EXPECT_EQ(shard.interval_us, 2000u);
  EXPECT_GE(shard.ticks, 2u);
  EXPECT_FALSE(shard.series.empty());
  EXPECT_TRUE(shard.has_series("runtime/loc0/parcels/delivered"));
  EXPECT_TRUE(shard.has_series("runtime/loc1/parcels/hist_dispatch_ns/p99"));
}

// ------------------------------------------------- dump action + sections

TEST(Stats, TelemetryDumpActionWritesShardMidRun) {
  const std::string dir = fresh_dir("dump");
  runtime_params prm;
  prm.localities = 2;
  prm.stats = 1;
  prm.telemetry_dir = dir;
  runtime rt(prm);
  const std::string shard_path = dir + "/px_telemetry.0.bin";

  rt.run([&] {
    for (int i = 0; i < 10; ++i) {
      core::async<&stats_ping>(rt.locality_gid(1), 1ull).get();
    }
    ASSERT_FALSE(file_exists(shard_path));
    // Trigger the dump the way a remote rank would: a parcel addressed to
    // the eagerly-registered px.telemetry_dump action (no-arg typed action).
    const auto id =
        parcel::action_registry::global().find("px.telemetry_dump");
    ASSERT_TRUE(id.has_value());
    parcel::parcel p;
    p.destination = rt.locality_gid(0);
    p.action = *id;
    p.arguments = util::to_bytes(std::tuple<>{});
    core::this_locality()->send(std::move(p));
    // Yield, don't sleep: the dump fiber needs this same worker.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(2);
    while (!file_exists(shard_path) &&
           std::chrono::steady_clock::now() < deadline) {
      threads::scheduler::yield();
    }
    EXPECT_TRUE(file_exists(shard_path));
  });

  telemetry_shard shard;
  ASSERT_TRUE(read_telemetry_shard(shard_path, shard));
  EXPECT_TRUE(shard.has_series("runtime/loc0/parcels/delivered"));
  rt.stop();
}

TEST(Stats, TelemetryDumpRepliesWithShardSize) {
  const std::string dir = fresh_dir("reply");
  runtime_params prm;
  prm.localities = 2;
  prm.stats = 1;
  prm.telemetry_dir = dir;
  runtime rt(prm);
  std::uint64_t bytes = 0;
  rt.run([&] {
    core::async<&stats_ping>(rt.locality_gid(1), 1ull).get();
    bytes = core::async<&core::telemetry_dump_action>(rt.locality_gid(1)).get();
  });
  // The reply is the size of the shard the dump wrote, and that shard
  // carries the series.
  std::FILE* f = std::fopen((dir + "/px_telemetry.0.bin").c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_EQ(bytes, static_cast<std::uint64_t>(std::ftell(f)));
  std::fclose(f);
  telemetry_shard shard;
  ASSERT_TRUE(read_telemetry_shard(dir + "/px_telemetry.0.bin", shard));
  EXPECT_EQ(shard.count(section_kind::sampler), 1u);
  EXPECT_FALSE(shard.series.empty());
  EXPECT_TRUE(shard.has_series("runtime/loc0/parcels/delivered"));
  rt.stop();
}

// One shard per rank whichever plane is armed; its sections follow the
// toggles, and with neither armed there is no file at all.
TEST(Stats, ShardSectionsFollowTheArmedPlanes) {
  const struct {
    int trace, stats;
  } configs[] = {{1, 1}, {0, 1}, {0, 0}};
  for (const auto& c : configs) {
    SCOPED_TRACE("trace=" + std::to_string(c.trace) +
                 " stats=" + std::to_string(c.stats));
    const std::string dir = fresh_dir("planes");
    runtime_params prm;
    prm.localities = 2;
    prm.trace = c.trace;
    prm.stats = c.stats;
    prm.telemetry_dir = dir;
    {
      runtime rt(prm);
      rt.run([&] { core::async<&stats_ping>(rt.locality_gid(1), 1ull).get(); });
      rt.stop();
    }
    const std::string shard_path = dir + "/px_telemetry.0.bin";
    if (c.trace == 0 && c.stats == 0) {
      EXPECT_FALSE(file_exists(shard_path));
      continue;
    }
    telemetry_shard shard;
    ASSERT_TRUE(read_telemetry_shard(shard_path, shard));
    if (c.trace != 0) {
      EXPECT_GE(shard.count(section_kind::events), 1u);
      EXPECT_FALSE(shard.events.empty());
    } else {
      EXPECT_EQ(shard.count(section_kind::events), 0u);
    }
    EXPECT_EQ(shard.count(section_kind::counters), 1u);
    EXPECT_GT(shard.delta("runtime/loc0/parcels/sent"), 0);
    EXPECT_EQ(shard.count(section_kind::sampler), 1u);
    EXPECT_GE(shard.count(section_kind::series), 1u);
    EXPECT_TRUE(shard.has_series("runtime/loc0/parcels/delivered"));
  }
  trace::recorder::global().configure(false, 0, 0);
}

// ------------------------------------------------------------ disabled mode

TEST(Stats, DisabledModeWritesNothing) {
  const std::string dir = fresh_dir("off");
  runtime_params prm;
  prm.localities = 2;
  prm.trace = 0;
  prm.stats = 0;
  prm.telemetry_dir = dir;
  runtime rt(prm);
  rt.run([&] {
    core::async<&stats_ping>(rt.locality_gid(1), 1ull).get();
    EXPECT_FALSE(introspect::stats_armed());
    // Mid-run dump is a no-op, not a crash or an empty shard.
    EXPECT_EQ(rt.dump_telemetry(), 0u);
  });
  EXPECT_EQ(rt.telemetry().ticks(), 0u);
  rt.stop();
  EXPECT_FALSE(file_exists(dir + "/px_telemetry.0.bin"));
  // Instrumented histograms never observed anything: the one-relaxed-load
  // gate kept every site cold.
  EXPECT_EQ(rt.introspection()
                .read("runtime/loc0/parcels/hist_dispatch_ns")
                .value(),
            0u);
}

// ---------------------------------------------- end-to-end (distributed)

// Rank body shared by the tcp and shm cases: rank 0 drives pings, has
// rank 1 write its shard mid-run over px.telemetry_dump, and queries a
// remote histogram quantile; every rank's shutdown then writes the shard
// the parent verifies (the tools/px_telemetry.py input contract).
void distributed_stats_rank_body() {
  runtime rt;
  rt.run([&] {
    if (rt.rank() != 0) return;
    for (int i = 0; i < 40; ++i) {
      auto fut = core::async<&stats_ping>(rt.locality_gid(1),
                                          static_cast<std::uint64_t>(i));
      EXPECT_EQ(fut.get(), static_cast<std::uint64_t>(i) + 1);
    }
    EXPECT_GT(core::async<&core::telemetry_dump_action>(rt.locality_gid(1)).get(),
              0u);
    auto q = introspect::query_hist(
        *core::this_locality(), "runtime/loc1/parcels/hist_dispatch_ns", 0.99);
    ASSERT_TRUE(q.has_value());
    EXPECT_GT(q->get(), 0u);
  });
  rt.stop();
}

void distributed_stats_parent_checks(const std::string& dir) {
  telemetry_shard s0, s1;
  ASSERT_TRUE(read_telemetry_shard(dir + "/px_telemetry.0.bin", s0));
  ASSERT_TRUE(read_telemetry_shard(dir + "/px_telemetry.1.bin", s1));
  EXPECT_EQ(s0.rank, 0u);
  EXPECT_EQ(s1.rank, 1u);
  // Rank 0 is the clock reference; rank 1 sampled a real offset (any
  // value, but the header carries it for the timeline merge).
  EXPECT_EQ(s0.clock_offset_ns, 0);
  // Each rank samples its own locality's counters (loc1 rows exist on
  // rank 0's shard too — schema parity — but only as remote names, which
  // the sampler skips).
  EXPECT_TRUE(s0.has_series("runtime/loc0/parcels/sent"));
  EXPECT_FALSE(s0.has_series("runtime/loc1/parcels/sent"));
  EXPECT_TRUE(s1.has_series("runtime/loc1/parcels/delivered"));
  EXPECT_TRUE(s1.has_series("runtime/loc1/parcels/hist_dispatch_ns/p99"));
}

void run_stats_ranks(const std::string& dir, const std::string& test,
                     const std::string& backend, const char* interval_us) {
  ::setenv("PX_STATS", "1", 1);
  ::setenv("PX_TELEMETRY_DIR", dir.c_str(), 1);
  ::setenv("PX_STATS_INTERVAL_US", interval_us, 1);
  px::test::run_ranks(2, test, backend);
  ::unsetenv("PX_STATS");
  ::unsetenv("PX_TELEMETRY_DIR");
  ::unsetenv("PX_STATS_INTERVAL_US");
}

TEST(Distributed, StatsShardsOverTcp) {
  if (px::test::is_rank_child()) {
    distributed_stats_rank_body();
    return;
  }
  const std::string dir = fresh_dir("tcp");
  run_stats_ranks(dir, "Distributed.StatsShardsOverTcp", "tcp", "2000");
  distributed_stats_parent_checks(dir);
}

TEST(Distributed, StatsShardsOverShm) {
  if (px::test::is_rank_child()) {
    distributed_stats_rank_body();
    return;
  }
  const std::string dir = fresh_dir("shm");
  run_stats_ranks(dir, "Distributed.StatsShardsOverShm", "shm", "2000");
  distributed_stats_parent_checks(dir);
}

// A mid-run dump of full series rings over shm.  Rank 1's shard then
// holds every ring's 512 points (more than half the 1 MiB shm ring), so
// the dump must stay a file write with a small reply: a reply carrying
// the series would not fit in one shm frame, and the caller would wait
// forever.
TEST(Distributed, TelemetryDumpAfterFullRingsOverShm) {
  if (px::test::is_rank_child()) {
    runtime rt;
    rt.run([&] {
      if (rt.rank() != 0) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      // Rings are full once a point has been overwritten; on a slow host
      // 300 ms may not have got there yet.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (introspect::query_counter(*core::this_locality(),
                                       "runtime/loc1/stats/dropped_points")
                     ->get() == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      EXPECT_GT(
          core::async<&core::telemetry_dump_action>(rt.locality_gid(1)).get(),
          0u);
    });
    rt.stop();
    return;
  }
  const std::string dir = fresh_dir("fullshm");
  run_stats_ranks(dir, "Distributed.TelemetryDumpAfterFullRingsOverShm", "shm",
                  "200");
  telemetry_shard s0, s1;
  ASSERT_TRUE(read_telemetry_shard(dir + "/px_telemetry.0.bin", s0));
  ASSERT_TRUE(read_telemetry_shard(dir + "/px_telemetry.1.bin", s1));
  EXPECT_EQ(s1.rank, 1u);
  EXPECT_EQ(s1.interval_us, 200u);
  EXPECT_GT(s1.dropped_points, 0u);
  const auto& sent = s1.series["runtime/loc1/parcels/sent"];
  EXPECT_EQ(sent.size(), 512u);  // the default ring, full
}

}  // namespace
