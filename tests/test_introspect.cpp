// Introspection + adaptive rebalancing: counter registry (gid-addressable,
// path-named), cross-locality query_counter round trips, the rebalancer's
// decision, and its two actuators (hot-object migration, spawn_any
// placement steering).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "core/action.hpp"
#include "core/process.hpp"
#include "core/runtime.hpp"
#include "introspect/query.hpp"
#include "threads/scheduler.hpp"

namespace {

using namespace px;
using namespace std::chrono_literals;

void spin_us(double us) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double, std::micro>(us);
  while (std::chrono::steady_clock::now() < deadline) {
  }
}

std::atomic<int> g_bumps{0};
void bump_counter() { g_bumps.fetch_add(1); }
PX_REGISTER_ACTION(bump_counter)

// Polls `cond` for up to two seconds; the runtime gets no magic clocks.
template <typename F>
bool eventually(F&& cond) {
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return cond();
}

// ---------------------------------------------------------------- registry

TEST(Introspect, CountersAreGidAddressableAndPathNamed) {
  core::runtime_params p;
  p.localities = 2;
  p.workers_per_locality = 1;
  core::runtime rt(p);

  const auto id = rt.introspection().find("runtime/loc0/sched/spawned");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(id->kind(), gas::gid_kind::hardware);
  EXPECT_EQ(id->home(), 0u);
  // Bound in the AGAS directory like any first-class object.
  EXPECT_EQ(rt.gas().resolve_authoritative(1, *id).value(), 0u);

  // A counter names a *live* value, not a snapshot taken at registration.
  const std::uint64_t before =
      rt.introspection().read("runtime/loc0/sched/spawned").value();
  rt.run([] {
    for (int i = 0; i < 5; ++i) {
      core::this_locality()->spawn([] {});
    }
  });
  const std::uint64_t after =
      rt.introspection().read("runtime/loc0/sched/spawned").value();
  EXPECT_GE(after, before + 6);  // root + 5 children
  rt.stop();
}

TEST(Introspect, ListEnumeratesCounterSubtrees) {
  core::runtime_params p;
  p.localities = 2;
  p.workers_per_locality = 1;
  core::runtime rt(p);

  // Per-locality subtree: scheduler, parcels, port, fabric, net, trace.
  const auto loc1 = rt.introspection().list("runtime/loc1");
  EXPECT_GE(loc1.size(), 15u);
  for (const auto& c : loc1) {
    EXPECT_EQ(c.id.home(), 1u) << c.path;
    EXPECT_TRUE(rt.introspection().read(c.id).has_value()) << c.path;
  }
  // Global services.
  EXPECT_EQ(rt.introspection().list("runtime/agas").size(), 7u);
  EXPECT_EQ(rt.introspection().list("runtime/lco").size(), 3u);
  EXPECT_GE(rt.introspection().list("runtime/rebalance").size(), 5u);
  // The locality hardware gids are *not* counters.
  EXPECT_FALSE(rt.introspection().read("hw/locality/0").has_value());
  rt.stop();
}

TEST(Introspect, PerLocalityNetCountersExist) {
  core::runtime_params p;
  p.localities = 2;
  p.workers_per_locality = 1;
  core::runtime rt(p);
  rt.run([&] {
    for (int i = 0; i < 8; ++i) core::apply<&bump_counter>(rt.locality_gid(1));
  });
  // The wire totals are registered per locality and reflect transport
  // traffic (under the sim backend, the fabric's books).
  EXPECT_EQ(rt.introspection().list("runtime/loc0/net").size(), 4u);
  EXPECT_GT(rt.introspection().read("runtime/loc0/net/bytes_tx").value(), 0u);
  EXPECT_GT(rt.introspection().read("runtime/loc1/net/bytes_rx").value(), 0u);
  EXPECT_GT(rt.introspection().read("runtime/loc0/net/msgs_tx").value(), 0u);
  // Backend-specific rows (tcp reconnects, shm ring_full_waits/wakeups)
  // register only under their backend — sim carries none of them.
  EXPECT_FALSE(
      rt.introspection().read("runtime/loc0/net/reconnects").has_value());
  rt.stop();
}

TEST(Introspect, RemoteCountersNameButDoNotSampleLocally) {
  core::runtime_params p;
  p.localities = 2;
  p.workers_per_locality = 1;
  core::runtime rt(p);
  // A sampler-less (remote-homed) counter is findable and listable — its
  // gid allocation is the point — but read() refuses locally instead of
  // inventing a number for another process's books.
  const gas::gid id =
      rt.introspection().add_remote(1, "test/remote/only_named");
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.home(), 1u);
  ASSERT_TRUE(rt.introspection().find("test/remote/only_named").has_value());
  EXPECT_EQ(*rt.introspection().find("test/remote/only_named"), id);
  EXPECT_FALSE(rt.introspection().read(id).has_value());
  EXPECT_FALSE(rt.introspection().read("test/remote/only_named").has_value());
  rt.stop();
}

// ------------------------------------------------------------ query action

TEST(Introspect, QueryCounterCrossLocalityReturnsLiveValue) {
  core::runtime_params p;
  p.localities = 3;
  p.workers_per_locality = 1;
  core::runtime rt(p);
  rt.start();

  // Make locality 2 do real work, then interrogate it from locality 0
  // with a plain parcel round trip.
  constexpr int kThreads = 32;
  for (int i = 0; i < kThreads; ++i) {
    rt.at(2).spawn([] {});
  }
  rt.wait_quiescent();

  std::atomic<std::uint64_t> by_path{0}, by_gid{0};
  const gas::gid counter =
      rt.introspection().find("runtime/loc2/sched/spawned").value();
  rt.run([&] {
    auto fut = introspect::query_counter(*core::this_locality(),
                                         "runtime/loc2/sched/spawned");
    ASSERT_TRUE(fut.has_value());
    by_path.store(fut->get());
    by_gid.store(
        introspect::query_counter(*core::this_locality(), counter).get());
  });
  // Live: at least the K explicit spawns (the query action itself spawns
  // at locality 2, so the second read can only be larger).
  EXPECT_GE(by_path.load(), static_cast<std::uint64_t>(kThreads));
  EXPECT_GE(by_gid.load(), by_path.load());

  // A hardware gid that is not a counter answers with the sentinel
  // instead of wedging the asker.
  std::atomic<std::uint64_t> missing{0};
  rt.run([&] {
    missing.store(introspect::query_counter(*core::this_locality(),
                                            rt.locality_gid(1))
                      .get());
  });
  EXPECT_EQ(missing.load(), introspect::no_such_counter);

  // Unknown paths fail locally, before any parcel is spent.
  rt.run([&] {
    EXPECT_FALSE(introspect::query_counter(*core::this_locality(),
                                           "runtime/loc9/nope")
                     .has_value());
  });
  rt.stop();
}

// -------------------------------------------------------------- rebalancer

// The one decision both machine shapes run (in-process over live reads,
// distributed over probe replies), as a table of depth snapshots.
TEST(Rebalancer, OneDecisionForBothShapes) {
  core::rebalancer_params p;
  p.threshold = 2.0;
  p.min_depth = 8;
  p.max_migrations = 4;
  using dest = std::pair<std::uint64_t, gas::locality_id>;
  constexpr auto any = gas::invalid_locality;

  // Balanced: deep enough, but max/mean is 1.
  auto plan = core::rebalancer::decide({20, 20, 20, 20}, p);
  EXPECT_FALSE(plan.trigger);
  EXPECT_DOUBLE_EQ(plan.imbalance, 1.0);
  EXPECT_TRUE(plan.dests.empty());
  EXPECT_EQ(plan.budget, 0u);

  // Skewed, but the deepest queue is under min_depth.
  plan = core::rebalancer::decide({7, 0, 0, 0}, p);
  EXPECT_FALSE(plan.trigger);
  EXPECT_EQ(plan.max_depth, 7u);
  EXPECT_DOUBLE_EQ(plan.imbalance, 4.0);

  // Deep, but the imbalance (12 / 8 = 1.5) is under the threshold.
  plan = core::rebalancer::decide({12, 6, 6, 8}, p);
  EXPECT_FALSE(plan.trigger);
  EXPECT_EQ(plan.deepest, 0u);
  EXPECT_DOUBLE_EQ(plan.mean, 8.0);
  EXPECT_DOUBLE_EQ(plan.imbalance, 1.5);

  // Skewed: deepest at 2, mean 7; destinations at or below the mean,
  // shallowest first (locality 3 at 8 is above it), budget
  // min(max_migrations, floor(max - mean)) = min(4, 13) = 4.
  plan = core::rebalancer::decide({5, 1, 20, 8, 1}, p);
  EXPECT_TRUE(plan.trigger);
  EXPECT_EQ(plan.deepest, 2u);
  EXPECT_EQ(plan.max_depth, 20u);
  EXPECT_DOUBLE_EQ(plan.mean, 7.0);
  EXPECT_EQ(plan.dests, (std::vector<dest>{{1, 1}, {1, 4}, {5, 0}}));
  EXPECT_EQ(plan.budget, 4u);

  // The excess over the mean caps the budget below max_migrations:
  // max 10, mean 7.5, floor(2.5) = 2.
  core::rebalancer_params loose = p;
  loose.threshold = 1.2;
  plan = core::rebalancer::decide({10, 5}, loose);
  EXPECT_TRUE(plan.trigger);
  EXPECT_EQ(plan.dests, (std::vector<dest>{{5, 1}}));
  EXPECT_EQ(plan.budget, 2u);

  // Push-only gate (distributed): only the deepest rank acts.
  EXPECT_TRUE(core::rebalancer::decide({5, 1, 20, 8, 1}, p, 2).trigger);
  plan = core::rebalancer::decide({5, 1, 20, 8, 1}, p, 0);
  EXPECT_FALSE(plan.trigger);
  EXPECT_EQ(plan.deepest, 2u);
  EXPECT_TRUE(plan.dests.empty());
  EXPECT_EQ(core::rebalancer::decide({5, 1, 20, 8, 1}, p, any).deepest, 2u);
}

std::atomic<std::uint64_t> hops_done{0};

// A self-chaining hot-spot: each hop does a slice of compute at the
// object's *current* owner, then re-sends to the same gid — so after a
// migration the chain follows the object (message-driven work moves to
// the data).
void chain_hop(std::uint64_t gid_bits, std::uint32_t remaining) {
  spin_us(10.0);
  hops_done.fetch_add(1, std::memory_order_relaxed);
  if (remaining > 0) {
    core::apply<&chain_hop>(gas::gid::from_bits(gid_bits), gid_bits,
                            remaining - 1);
  }
}
PX_REGISTER_ACTION(chain_hop)

TEST(Rebalancer, MigratesHotObjectsAwayFromOverloadedLocality) {
  core::runtime_params p;
  p.localities = 2;
  p.workers_per_locality = 1;
  p.rebalance = 1;
  p.rebalance_threshold = 1.2;
  p.rebalance_min_depth = 2;
  p.rebalance_max_migrations = 4;
  p.rebalance_interval_us = 50;
  core::runtime rt(p);

  constexpr int kObjects = 8;
  constexpr std::uint32_t kHops = 100;
  std::vector<gas::gid> objs;
  for (int i = 0; i < kObjects; ++i) {
    objs.push_back(rt.new_object<int>(0, i));  // all homed+bound at loc 0
  }

  hops_done.store(0);
  rt.run([&] {
    for (const auto id : objs) {
      core::apply<&chain_hop>(id, id.bits(), kHops - 1);
    }
  });

  // Work conserved across every migration and forward.
  EXPECT_EQ(hops_done.load(), static_cast<std::uint64_t>(kObjects) * kHops);

  const auto st = rt.balancer().stats();
  EXPECT_GT(st.rounds, 0u);
  EXPECT_GT(st.triggers, 0u);
  EXPECT_GE(st.objects_migrated, 1u);
  EXPECT_GE(rt.gas().stats().migrations, 1u);
  // The skew physically moved: some hot objects now live at locality 1.
  EXPECT_GE(rt.at(1).object_count(), 1u);
  // And the counters advertise it machine-wide.
  EXPECT_EQ(rt.introspection().read("runtime/rebalance/migrations").value(),
            st.objects_migrated);
  rt.stop();
}

TEST(Rebalancer, SpawnAnySteersTowardShallowQueues) {
  core::runtime_params p;
  p.localities = 2;
  p.workers_per_locality = 1;
  p.rebalance = 1;
  // Keep the migration actuator out of the way: placement steering is
  // unconditional while the rebalancer is enabled.
  p.rebalance_min_depth = 1000000;
  core::runtime rt(p);
  rt.start();

  // The clog must stay deeper than the whole task batch: placement reads
  // instantaneous depths, and tasks parked at locality 1 count against it
  // until its worker drains them.
  std::atomic<bool> release{false};
  constexpr int kClog = 24;
  for (int i = 0; i < kClog; ++i) {
    rt.at(0).spawn([&release] {
      while (!release.load(std::memory_order_acquire)) {
        threads::scheduler::yield();
      }
    });
  }
  ASSERT_TRUE(eventually(
      [&] { return rt.at(0).sched().ready_estimate() >= kClog - 1; }));

  auto proc = core::create_process(rt, {0, 1});
  std::atomic<int> ran_at_1{0};
  constexpr int kTasks = 12;
  for (int i = 0; i < kTasks; ++i) {
    proc->spawn_any([&ran_at_1] {
      if (core::this_locality()->id() == 1) {
        ran_at_1.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  proc->seal();
  release.store(true, std::memory_order_release);
  proc->terminated().wait();
  rt.wait_quiescent();

  // Static round-robin would put exactly half at locality 1; steering
  // sends the whole batch away from the clogged locality (its queue is
  // always strictly deeper than locality 1 can transiently get).
  EXPECT_GE(ran_at_1.load(), kTasks - 1);
  EXPECT_GT(rt.balancer().stats().placement_redirects, 0u);
  rt.stop();
}

TEST(Rebalancer, DisabledKeepsRoundRobinAndMigratesNothing) {
  core::runtime_params p;
  p.localities = 2;
  p.workers_per_locality = 1;
  p.rebalance = 0;
  core::runtime rt(p);
  rt.start();

  auto proc = core::create_process(rt, {0, 1});
  std::atomic<int> ran_at_1{0};
  constexpr int kTasks = 10;
  for (int i = 0; i < kTasks; ++i) {
    proc->spawn_any([&ran_at_1] {
      if (core::this_locality()->id() == 1) {
        ran_at_1.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  proc->seal();
  proc->terminated().wait();
  rt.wait_quiescent();

  EXPECT_EQ(ran_at_1.load(), kTasks / 2);  // exact round-robin split
  const auto st = rt.balancer().stats();
  EXPECT_EQ(st.placement_redirects, 0u);
  EXPECT_EQ(st.objects_migrated, 0u);
  rt.stop();
}

}  // namespace
