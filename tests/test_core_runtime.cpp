// Integration tests: the ParalleX runtime end to end — localities, typed
// actions, parcels with continuations, AGAS migration with stale-cache
// forwarding, processes, and quiescence.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "core/action.hpp"
#include "core/migration.hpp"
#include "core/process.hpp"
#include "core/runtime.hpp"

namespace {

using namespace px;
using core::runtime;
using core::runtime_params;

std::atomic<int> g_side_effect{0};

void bump(int amount) { g_side_effect.fetch_add(amount); }
PX_REGISTER_ACTION(bump)

int add(int a, int b) { return a + b; }
PX_REGISTER_ACTION(add)

int which_locality() {
  return static_cast<int>(core::this_locality()->id());
}
PX_REGISTER_ACTION(which_locality)

std::uint64_t fib(std::uint64_t n) {
  if (n < 2) return n;
  // Distribute the left branch to a pseudo-random locality; keep the right
  // branch local.  Classic message-driven recursive decomposition.
  core::locality* here = core::this_locality();
  runtime& rt = here->rt();
  const auto target = static_cast<gas::locality_id>(
      (n * 2654435761u) % rt.num_localities());
  auto left = core::async<&fib>(rt.locality_gid(target), n - 1);
  const std::uint64_t right = fib(n - 2);
  return left.get() + right;
}
PX_REGISTER_ACTION(fib)

runtime_params quick_params(std::size_t localities, unsigned workers = 2) {
  runtime_params p;
  p.localities = localities;
  p.workers_per_locality = workers;
  return p;
}

TEST(Runtime, StartsAndStopsCleanly) {
  runtime rt(quick_params(2));
  rt.start();
  rt.stop();
}

TEST(Runtime, RunExecutesRootAndQuiesces) {
  runtime rt(quick_params(2));
  std::atomic<bool> ran{false};
  rt.run([&] { ran.store(true); });
  EXPECT_TRUE(ran.load());
}

TEST(Runtime, ApplyRunsOnTargetLocality) {
  runtime rt(quick_params(4));
  g_side_effect.store(0);
  rt.run([&] {
    for (int i = 0; i < 4; ++i) {
      core::apply<&bump>(rt.locality_gid(i), 10);
    }
  });
  EXPECT_EQ(g_side_effect.load(), 40);
}

TEST(Runtime, AsyncReturnsRemoteResult) {
  runtime rt(quick_params(2));
  int result = 0;
  rt.run([&] {
    auto f = core::async<&add>(rt.locality_gid(1), 20, 22);
    result = f.get();
  });
  EXPECT_EQ(result, 42);
}

TEST(Runtime, AsyncLandsOnTheNamedLocality) {
  runtime rt(quick_params(4));
  std::vector<int> where(4, -1);
  rt.run([&] {
    for (int i = 0; i < 4; ++i) {
      where[i] = core::async<&which_locality>(rt.locality_gid(i)).get();
    }
  });
  EXPECT_EQ(where, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Runtime, EagerFlushShipsIsolatedRequestImmediately) {
  // Isolated requests from an otherwise-idle locality: the first-parcel
  // eager flush must ship them from route() itself (the sender never has
  // to suspend and wait for the flush-on-idle pass), and the reply leg is
  // just as isolated, so both ports count eager flushes.  Several round
  // trips because any single one can lose the benign race where the
  // fabric progress thread's idle flush ships the frame first (counted as
  // a demand flush); all of them losing it is not a thing.
  runtime rt(quick_params(2, 1));
  int result = 0;
  rt.run([&] {
    for (int i = 0; i < 16; ++i) {
      result = core::async<&add>(rt.locality_gid(1), 20, i).get();
    }
  });
  EXPECT_EQ(result, 35);
  EXPECT_GE(rt.port(0).stats().eager_flushes, 1u);
  EXPECT_GE(rt.port(1).stats().eager_flushes, 1u);
}

TEST(Runtime, EagerFlushDisabledFallsBackToIdleFlush) {
  runtime_params p = quick_params(2, 1);
  p.parcel_eager_flush = 0;
  runtime rt(p);
  int result = 0;
  rt.run([&] {
    result = core::async<&add>(rt.locality_gid(1), 20, 22).get();
  });
  EXPECT_EQ(result, 42);
  EXPECT_EQ(rt.port(0).stats().eager_flushes, 0u);
  EXPECT_EQ(rt.port(1).stats().eager_flushes, 0u);
  // The parcels still left — through demand (idle/quiescence) flushes.
  EXPECT_GE(rt.port(0).stats().demand_flushes, 1u);
}

TEST(Runtime, DistributedFibonacci) {
  runtime rt(quick_params(4, 2));
  std::uint64_t result = 0;
  rt.run([&] {
    result = core::async<&fib>(rt.locality_gid(0), 16).get();
  });
  EXPECT_EQ(result, 987u);
}

TEST(Runtime, DistributedFibonacciWithLatency) {
  runtime_params p = quick_params(4, 2);
  p.fabric.base_latency_ns = 20'000;  // 20us per parcel hop
  runtime rt(p);
  std::uint64_t result = 0;
  rt.run([&] {
    result = core::async<&fib>(rt.locality_gid(0), 12).get();
  });
  EXPECT_EQ(result, 144u);
}

TEST(Runtime, LocalityGidsAreRegisteredNames) {
  runtime rt(quick_params(3));
  auto g0 = rt.names().lookup("hw/locality/0");
  auto g2 = rt.names().lookup("hw/locality/2");
  ASSERT_TRUE(g0.has_value());
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(*g0, rt.locality_gid(0));
  EXPECT_EQ(*g2, rt.locality_gid(2));
  EXPECT_EQ(g0->kind(), gas::gid_kind::hardware);
}

// ------------------------------------------------------- object migration

struct counter_object {
  std::atomic<int> hits{0};
};

void hit_counter(std::uint64_t gid_bits) {
  auto* here = core::this_locality();
  auto obj = std::static_pointer_cast<counter_object>(
      here->get_object(gas::gid::from_bits(gid_bits)));
  ASSERT_NE(obj, nullptr);  // delivery path must have routed us correctly
  obj->hits.fetch_add(1);
}
PX_REGISTER_ACTION(hit_counter)

TEST(Runtime, ParcelsFollowMigratedObjects) {
  runtime rt(quick_params(3));
  rt.start();
  const gas::gid obj = rt.new_object<counter_object>(0);

  rt.run([&] { core::apply<&hit_counter>(obj, obj.bits()); });
  EXPECT_EQ(rt.get_local<counter_object>(0, obj)->hits.load(), 1);

  // Warm locality 1's AGAS cache, then migrate away and send again from
  // locality 1: the parcel lands on the stale owner and must be forwarded.
  EXPECT_TRUE(rt.migrate_gid(obj, 2));
  rt.run([&] { core::apply<&hit_counter>(obj, obj.bits()); });
  auto moved = rt.get_local<counter_object>(2, obj);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->hits.load(), 2);
  EXPECT_FALSE(rt.at(0).has_object(obj));
}

TEST(Runtime, ForwardBoundDropsWithDiagnostic) {
  runtime_params p = quick_params(2);
  p.max_forwards = 4;
  runtime rt(p);
  rt.start();
  const gas::gid obj = rt.new_object<counter_object>(1);

  // A parcel already past the hop bound is dropped, not bounced or
  // asserted on.
  parcel::parcel over;
  over.destination = obj;
  over.action = core::action<&hit_counter>::id();
  over.arguments = util::to_bytes(std::tuple<std::uint64_t>(obj.bits()));
  over.source = 0;
  over.forwards = 5;  // > max_forwards
  rt.route(0, std::move(over));
  rt.wait_quiescent();
  EXPECT_EQ(rt.at(0).stats().parcels_dropped, 1u);
  EXPECT_EQ(rt.get_local<counter_object>(1, obj)->hits.load(), 0);
}

std::atomic<int> g_chase_dispatched{0};

void chase_counter(std::uint64_t gid_bits) {
  // Tolerates the documented erase/rebind window: migration may leave the
  // object momentarily absent at its authoritative owner, in which case
  // the dispatch still counts (the parcel was not lost).
  auto obj = std::static_pointer_cast<counter_object>(
      core::this_locality()->get_object(gas::gid::from_bits(gid_bits)));
  if (obj != nullptr) obj->hits.fetch_add(1);
  g_chase_dispatched.fetch_add(1);
}
PX_REGISTER_ACTION(chase_counter)

TEST(Runtime, MigrationUnderLoadNeverWedgesOrCrashes) {
  // Regression for the forward bound: hammer an object with parcels while
  // it migrates between localities.  Some parcels chase the object through
  // stale caches; every one must end dispatched or cleanly dropped (the
  // pre-bound code asserted out at 8 hops), and quiescence must still
  // terminate.
  runtime_params p = quick_params(3, 2);
  p.max_forwards = 3;
  runtime rt(p);
  rt.start();
  const gas::gid obj = rt.new_object<counter_object>(0);
  constexpr int kParcels = 300;
  g_chase_dispatched.store(0);

  rt.run([&] {
    for (int i = 0; i < kParcels; ++i) {
      core::apply<&chase_counter>(obj, obj.bits());
      if (i % 25 == 24) {
        EXPECT_TRUE(
            rt.migrate_gid(obj, static_cast<gas::locality_id>((i / 25) % 3)));
      }
    }
  });

  std::uint64_t dropped = 0;
  for (gas::locality_id l = 0; l < 3; ++l) {
    dropped += rt.at(l).stats().parcels_dropped;
  }
  // Conservation: every parcel either reached a dispatch or was dropped at
  // the forward bound — none lost, no assert-crash, no wedge.
  EXPECT_EQ(static_cast<std::uint64_t>(g_chase_dispatched.load()) + dropped,
            static_cast<std::uint64_t>(kParcels));
  EXPECT_GT(g_chase_dispatched.load(), 0);
}

TEST(Runtime, CoalescedParcelsAllArriveAndQuiesce) {
  // Thresholds too large to trip on byte/count: delivery relies entirely
  // on the flush-on-idle hook and the quiescence loop's forced flush —
  // the paths that keep wait_quiescent sound with batching enabled.
  // (How *much* coalescing happens here is timing-dependent; the
  // deterministic frames-vs-parcels check lives in
  // ParcelPortCoalescesDeterministically.)
  runtime_params p = quick_params(4, 2);
  p.parcel_flush_bytes = 1 << 20;
  p.parcel_flush_count = 100000;
  runtime rt(p);
  g_side_effect.store(0);
  rt.run([&] {
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 4; ++i) {
        core::apply<&bump>(rt.locality_gid(i), 1);
      }
    }
  });
  EXPECT_EQ(g_side_effect.load(), 200);
  EXPECT_EQ(rt.port(0).pending(), 0u);
  EXPECT_EQ(rt.port(0).stats().parcels_enqueued, 150u);  // 3 remote dests
}

TEST(Runtime, ParcelPortCoalescesDeterministically) {
  // Drive a port directly against a bare fabric: no schedulers and no
  // runtime idle backstop, so the frame accounting is exact.
  net::fabric_params fp;
  fp.endpoints = 2;
  net::fabric fabric(fp);
  std::atomic<std::uint64_t> parcels_received{0};
  std::atomic<std::uint64_t> frames_received{0};
  fabric.set_handler(0, [](net::message&) {});
  fabric.set_handler(1, [&](net::message& m) {
    const auto frame = parcel::frame_view::parse(m.payload);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->count(), m.units);
    parcels_received.fetch_add(m.units);
    frames_received.fetch_add(1);
  });

  core::parcel_port_params pp;
  pp.flush_bytes = 1 << 20;
  pp.flush_count = 10;
  core::parcel_port port(fabric, 0, pp);
  parcel::parcel t;
  t.destination = gas::gid::make(gas::gid_kind::data, 1, 1);
  t.action = 1;
  for (int i = 0; i < 25; ++i) port.enqueue(1, t);
  EXPECT_EQ(port.pending(), 5u);  // two threshold flushes of 10 shipped
  port.flush_all();
  EXPECT_EQ(port.pending(), 0u);
  fabric.drain();
  EXPECT_EQ(parcels_received.load(), 25u);
  EXPECT_EQ(frames_received.load(), 3u);  // 10 + 10 + 5
  const auto st = port.stats();
  EXPECT_EQ(st.parcels_enqueued, 25u);
  EXPECT_EQ(st.frames_sent, 3u);
  EXPECT_EQ(st.threshold_flushes, 2u);
  EXPECT_EQ(st.demand_flushes, 1u);
}

TEST(Runtime, MaxForwardsIsClampedBelowCounterWrap) {
  runtime_params p = quick_params(2);
  p.max_forwards = 255;  // would be unreachable for the u8 hop counter
  runtime rt(p);
  EXPECT_EQ(rt.params().max_forwards, 254);
}

TEST(Runtime, CoalescingDisabledMatchesSemantics) {
  runtime_params p = quick_params(3, 2);
  p.parcel_flush_count = 1;  // every parcel ships as its own frame
  runtime rt(p);
  g_side_effect.store(0);
  rt.run([&] {
    for (int i = 0; i < 60; ++i) {
      core::apply<&bump>(rt.locality_gid(i % 3), 2);
    }
  });
  EXPECT_EQ(g_side_effect.load(), 120);
  const auto st0 = rt.port(0).stats();
  EXPECT_EQ(st0.parcels_enqueued, st0.frames_sent);
}

TEST(Runtime, StaleCacheForwardingDelivers) {
  runtime rt(quick_params(3));
  rt.start();
  const gas::gid obj = rt.new_object<counter_object>(1);

  // Populate locality 0's cache with owner=1.
  rt.run([&] { core::apply<&hit_counter>(obj, obj.bits()); });
  // Move to 2; locality 0 still believes 1.
  EXPECT_TRUE(rt.migrate_gid(obj, 2));
  auto cached = rt.gas().resolve(0, obj);
  ASSERT_TRUE(cached.has_value());

  rt.run([&] { core::apply<&hit_counter>(obj, obj.bits()); });
  EXPECT_EQ(rt.get_local<counter_object>(2, obj)->hits.load(), 2);
  // The forward refreshed the authoritative route.
  EXPECT_EQ(rt.gas().resolve_authoritative(0, obj).value(), 2u);
}

TEST(Runtime, ConcurrentMigrationsOfOneGidLeaveOneCopy) {
  // Two fibers on different localities hand the same object off locality 0
  // at once, each toward its own destination.  The per-gid claim admits
  // one; the other is rejected (the claim is held, or the object has
  // already left 0) and never fires its `done`.  Repeated so that the two
  // calls really overlap in some trials.
  runtime rt(quick_params(3, 2));
  rt.start();
  for (int trial = 0; trial < 200; ++trial) {
    const gas::gid obj = rt.new_object<counter_object>(0);
    std::atomic<int> ready{0};
    std::atomic<int> dones{0};
    std::atomic<int> accepted[3] = {-1, -1, -1};
    for (const gas::locality_id to : {1u, 2u}) {
      rt.at(to).spawn([&, to] {
        ready.fetch_add(1);
        while (ready.load() < 2) {
        }
        const bool ok = rt.migrate_gid_async(obj, 0, to, [&](bool moved) {
          if (moved) dones.fetch_add(1);
        });
        accepted[to].store(ok ? 1 : 0);
      });
    }
    rt.wait_quiescent();
    ASSERT_EQ(accepted[1].load() + accepted[2].load(), 1) << "trial " << trial;
    const gas::locality_id winner = accepted[1].load() == 1 ? 1 : 2;
    const gas::locality_id loser = 3 - winner;
    ASSERT_EQ(dones.load(), 1) << "trial " << trial;
    ASSERT_TRUE(rt.at(winner).has_object(obj)) << "trial " << trial;
    ASSERT_FALSE(rt.at(loser).has_object(obj)) << "trial " << trial;
    ASSERT_FALSE(rt.at(0).has_object(obj)) << "trial " << trial;
    ASSERT_EQ(rt.gas().resolve_authoritative(0, obj).value(), winner)
        << "trial " << trial;
  }
  rt.stop();
}

TEST(Runtime, MigrationFromAStaleSourceIsRejected) {
  runtime rt(quick_params(3));
  rt.start();
  const gas::gid obj = rt.new_object<counter_object>(0);
  ASSERT_TRUE(rt.migrate_gid(obj, 1));

  // A stale heat entry still names locality 0 as the source: the handoff
  // must not touch the object at its real owner.
  bool called = false;
  EXPECT_FALSE(rt.migrate_gid_async(obj, 0, 2, [&](bool) { called = true; }));
  EXPECT_FALSE(called);
  EXPECT_TRUE(rt.at(1).has_object(obj));
  EXPECT_FALSE(rt.at(2).has_object(obj));
  EXPECT_EQ(rt.gas().resolve_authoritative(0, obj).value(), 1u);
  // The rejection released its claim: a move from the real owner works.
  EXPECT_TRUE(rt.migrate_gid_async(obj, 1, 2, [&](bool) { called = true; }));
  EXPECT_TRUE(called);
  EXPECT_TRUE(rt.at(2).has_object(obj));
  rt.stop();
}

// -------------------------------------------- migration core, no runtime
//
// core::migration alone, driven with hand-written handoff sequences: gids
// are plain numbers and nothing else is constructed.

using step = core::migration::step;
constexpr std::uint64_t kGid = 42;

TEST(MigrationCore, SecondClaimOfAnInFlightGidIsRejected) {
  core::migration m;
  m.tag(kGid, "T");
  EXPECT_FALSE(m.claim(kGid, false).has_value());  // not a data gid
  ASSERT_EQ(m.claim(kGid, true), "T");
  EXPECT_FALSE(m.claim(kGid, true).has_value());
  ASSERT_EQ(m.route(kGid, true, true, false), step::move);
  EXPECT_FALSE(m.claim(kGid, true).has_value());  // still mid-handoff
  m.retire(kGid, false);
  EXPECT_EQ(m.claim(kGid, true), "T");
}

TEST(MigrationCore, StaleSourceIsRejectedAndReleasesTheClaim) {
  core::migration m;
  m.tag(kGid, "T");
  ASSERT_TRUE(m.claim(kGid, true).has_value());
  EXPECT_EQ(m.route(kGid, false, true, false), step::reject);
  ASSERT_EQ(m.claim(kGid, true), "T");  // released, type kept
  EXPECT_EQ(m.route(kGid, false, false, true), step::reject);
  EXPECT_TRUE(m.claim(kGid, true).has_value());
}

TEST(MigrationCore, UntaggedGidCannotCrossProcesses) {
  core::migration m;
  ASSERT_EQ(m.claim(kGid, true), "");
  EXPECT_EQ(m.route(kGid, true, false, true), step::reject);
  ASSERT_EQ(m.claim(kGid, true), "");
  EXPECT_EQ(m.route(kGid, true, true, false), step::move);  // in-process
  m.retire(kGid, false);
  EXPECT_TRUE(m.tagged().empty());

  m.tag(kGid, "T");
  ASSERT_EQ(m.claim(kGid, true), "T");
  EXPECT_EQ(m.route(kGid, true, false, false), step::reject);  // no codec
  ASSERT_EQ(m.claim(kGid, true), "T");
  EXPECT_EQ(m.route(kGid, true, false, true), step::ship);
}

TEST(MigrationCore, RetireAcrossProcessesForgetsTheType) {
  core::migration m;
  m.tag(1, "T");
  m.tag(2, "T");
  ASSERT_EQ(m.claim(1, true), "T");
  ASSERT_EQ(m.route(1, true, false, true), step::ship);
  m.retire(1, true);
  ASSERT_EQ(m.claim(2, true), "T");
  ASSERT_EQ(m.route(2, true, true, false), step::move);
  m.retire(2, false);
  EXPECT_EQ(m.tagged(), std::vector<std::uint64_t>{2});
  EXPECT_EQ(m.claim(1, true), "");
  EXPECT_EQ(m.claim(2, true), "T");
}

TEST(MigrationCore, ImplantOfAGidMidHandoffIsRefused) {
  core::migration m;
  m.tag(kGid, "T");
  ASSERT_TRUE(m.claim(kGid, true).has_value());
  EXPECT_FALSE(m.implant(kGid, "U"));
  ASSERT_EQ(m.route(kGid, true, false, true), step::ship);
  m.retire(kGid, true);
  EXPECT_TRUE(m.tagged().empty());  // the refused implant tagged nothing
  EXPECT_TRUE(m.implant(kGid, "U"));
  EXPECT_FALSE(m.implant(kGid, "U"));
}

// A->B->C at B: the object arrived from A and B's directory flip is out to
// the home.  B->C must wait for that ack, or the home could apply C's flip
// before B's and point at a rank that already retired its copy.
TEST(MigrationCore, ChainedHandoffWaitsForTheHomeAck) {
  core::migration b;
  ASSERT_TRUE(b.implant(kGid, "T"));
  EXPECT_EQ(b.tagged(), std::vector<std::uint64_t>{kGid});
  EXPECT_FALSE(b.claim(kGid, true).has_value());
  b.implanted(kGid);
  ASSERT_EQ(b.claim(kGid, true), "T");
  EXPECT_EQ(b.route(kGid, true, false, true), step::ship);
}

// ---------------------------------------------------------------- process

TEST(Process, TerminationDetectsNestedChildren) {
  runtime rt(quick_params(3));
  rt.start();
  auto proc = core::create_process(rt, {0, 1, 2});
  std::atomic<int> work{0};

  rt.run([&] {
    for (int i = 0; i < 3; ++i) {
      proc->spawn_any([&, proc] {
        work.fetch_add(1);
        // Nested (grandchild) work, spawned from inside a child.
        proc->spawn_any([&] { work.fetch_add(10); });
      });
    }
    proc->seal();
    proc->terminated().wait();
    EXPECT_EQ(work.load(), 33);
  });
  EXPECT_EQ(proc->children_spawned(), 6u);
}

TEST(Process, IsAddressableInTheGlobalNamespace) {
  runtime rt(quick_params(2));
  rt.start();
  auto proc = core::create_process(rt, {0, 1});
  EXPECT_EQ(proc->id().kind(), gas::gid_kind::process);
  auto obj = rt.at(0).get_object(proc->id());
  EXPECT_EQ(obj.get(), proc.get());
  proc->seal();
  proc->terminated().wait();
}

}  // namespace
