// Multi-process distributed runtime tests: the tcp and shm transports end
// to end.
//
// Every test here runs as parent + ranks (see distributed_helpers.hpp):
// the parent forks this binary once per rank with PX_NET_* set, and each
// rank constructs a runtime whose ctor resolves the backend from that
// environment, bootstraps against rank 0, and meshes up.  The rank body is
// ordinary runtime code — same actions, futures, and quiescence calls as
// the single-process tests — which is the point: the transport is a
// backend, not a programming model.  The headline scenarios (pingpong,
// fan-out storm, migration storm, percolation) run the *same rank body*
// under both backends; only the run_ranks() backend tag differs.
//
// Collective discipline: all ranks make the same sequence of
// run()/wait_quiescent()/stop() calls (they are collectives over the
// bootstrap control plane).
#include <gtest/gtest.h>

#include <array>
#include <vector>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <thread>

#include "core/action.hpp"
#include "core/echo.hpp"
#include "core/percolation.hpp"
#include "core/process.hpp"
#include "core/runtime.hpp"
#include "distributed_helpers.hpp"
#include "introspect/query.hpp"
#include "litlx/litlx.hpp"
#include "parcel/migration.hpp"
#include "threads/scheduler.hpp"
#include "util/clock.hpp"
#include "util/spinlock.hpp"

namespace {

using namespace px;
using core::runtime;
using core::runtime_params;

// Per-process globals: each rank is its own process, so these are the
// rank-local books the assertions below read.
std::atomic<std::uint64_t> g_hits{0};
std::atomic<std::uint64_t> g_tally{0};

std::uint64_t ping(std::uint64_t x) { return x + 1; }
PX_REGISTER_ACTION(ping)

std::uint64_t whoami() {
  return core::this_locality()->id();
}
PX_REGISTER_ACTION(whoami)

void tally() { g_tally.fetch_add(1); }
PX_REGISTER_ACTION(tally)

// Fan-out storm target: bump the local count, then chain a parcel back to
// rank 0 — quiescence must hold through the second hop too.
void storm_hit() {
  g_hits.fetch_add(1);
  core::locality* here = core::this_locality();
  core::apply<&tally>(here->rt().locality_gid(0));
}
PX_REGISTER_ACTION(storm_hit)

// Rank body shared by the pingpong tests: every rank pings its ring
// neighbor `iters` times and checks the incremented echoes; rank count
// comes from the environment the parent set.
void pingpong_rank_body(int iters) {
  runtime rt;  // backend/rank/ranks resolve from PX_NET_*
  ASSERT_TRUE(rt.distributed());
  const auto n = static_cast<std::uint32_t>(rt.num_localities());
  const std::uint32_t next = (rt.rank() + 1) % n;
  rt.run([&] {
    // Identity first: the action really runs in the neighbor process.
    auto who = core::async<&whoami>(rt.locality_gid(next));
    EXPECT_EQ(who.get(), next);
    for (int i = 0; i < iters; ++i) {
      auto fut = core::async<&ping>(rt.locality_gid(next),
                                    static_cast<std::uint64_t>(i));
      EXPECT_EQ(fut.get(), static_cast<std::uint64_t>(i) + 1);
    }
  });
  rt.stop();
}

TEST(Distributed, Pingpong2) {
  if (px::test::is_rank_child()) {
    pingpong_rank_body(50);
    return;
  }
  px::test::run_ranks(2, "Distributed.Pingpong2");
}

TEST(Distributed, Pingpong4) {
  if (px::test::is_rank_child()) {
    pingpong_rank_body(25);
    return;
  }
  px::test::run_ranks(4, "Distributed.Pingpong4");
}

TEST(Distributed, PingpongShm2) {
  if (px::test::is_rank_child()) {
    pingpong_rank_body(50);
    return;
  }
  px::test::run_ranks(2, "Distributed.PingpongShm2", "shm");
}

// Receive on the idle worker (shm): rank 0 runs a closed-loop ping-pong,
// so both ranks' workers spin between replies and read the rings
// themselves.  Then rank 1's only worker is held in a 20 ms busy fiber
// while requests arrive: the progress thread, asleep while the worker
// polled, must take those frames over.
std::atomic<bool> g_hold_started{false};

void hold_started() { g_hold_started.store(true); }
PX_REGISTER_ACTION(hold_started)

// Holds this rank's only worker for 20 ms without yielding, once rank 0
// knows it has begun.
void hold_worker() {
  core::locality* here = core::this_locality();
  core::runtime& rt = here->rt();
  core::apply<&hold_started>(rt.locality_gid(0));
  rt.port(rt.rank()).flush(0);
  const std::int64_t until = util::now_ns() + 20'000'000;
  while (util::now_ns() < until) {
  }
}
PX_REGISTER_ACTION(hold_worker)

std::uint64_t net_row(runtime& rt, const char* name) {
  const std::string path = "runtime/loc" + std::to_string(rt.rank()) +
                           "/net/" + name;
  return rt.introspection().read(path).value_or(0);
}

TEST(Distributed, WorkerReceivesAndBackStopServesBusyRankShm2) {
  if (px::test::is_rank_child()) {
    constexpr std::uint64_t kPings = 2000;
    constexpr std::uint64_t kHeld = 32;
    runtime rt;
    rt.run([&] {
      if (rt.rank() != 0) return;
      for (std::uint64_t i = 0; i < kPings; ++i) {
        EXPECT_EQ(core::async<&ping>(rt.locality_gid(1), i).get(), i + 1);
      }
    });
    // Both workers spun between the round trips, so each read some frames
    // (a host without a core per worker spins too briefly to be sure).
    if (util::spin_pays(2)) {
      EXPECT_GT(net_row(rt, "worker_rx"), 0u);
    }
    const std::uint64_t by_progress =
        net_row(rt, "msgs_rx") - net_row(rt, "worker_rx");

    rt.run([&] {
      if (rt.rank() != 0) return;
      auto held = core::async<&hold_worker>(rt.locality_gid(1));
      while (!g_hold_started.load()) threads::scheduler::yield();
      std::vector<lco::future<std::uint64_t>> replies;
      for (std::uint64_t i = 0; i < kHeld; ++i) {
        replies.push_back(core::async<&ping>(rt.locality_gid(1), i));
      }
      for (std::uint64_t i = 0; i < kHeld; ++i) {
        EXPECT_EQ(replies[i].get(), i + 1);
      }
      held.get();
    });
    if (rt.rank() == 1) {
      // The requests landed while the worker was held: the progress
      // thread read them.
      EXPECT_GT(net_row(rt, "msgs_rx") - net_row(rt, "worker_rx"),
                by_progress);
    }
    rt.stop();
    return;
  }
  px::test::run_ranks(2, "Distributed.WorkerReceivesAndBackStopServesBusyRankShm2",
                      "shm");
}

// Rank body shared by the fan-out storm tests (tcp and shm).
void fanout_storm_rank_body(std::uint64_t per_peer) {
  runtime rt;
  const auto n = static_cast<std::uint32_t>(rt.num_localities());
  rt.run([&] {
    if (rt.rank() != 0) return;
    for (std::uint32_t r = 1; r < n; ++r) {
      for (std::uint64_t i = 0; i < per_peer; ++i) {
        core::apply<&storm_hit>(rt.locality_gid(r));
      }
    }
  });
  // run() returned == the machine reached *global* quiescence: every
  // storm parcel landed on its peer AND every chained tally landed back
  // on rank 0 — nothing was still on a wire when the verdict fired.
  if (rt.rank() == 0) {
    EXPECT_EQ(g_tally.load(), per_peer * (n - 1));
    EXPECT_EQ(g_hits.load(), 0u);
  } else {
    EXPECT_EQ(g_hits.load(), per_peer);
  }
  rt.stop();
}

TEST(Distributed, FanoutStormQuiescence4) {
  if (px::test::is_rank_child()) {
    fanout_storm_rank_body(200);
    return;
  }
  px::test::run_ranks(4, "Distributed.FanoutStormQuiescence4");
}

TEST(Distributed, FanoutStormQuiescenceShm4) {
  if (px::test::is_rank_child()) {
    fanout_storm_rank_body(200);
    return;
  }
  px::test::run_ranks(4, "Distributed.FanoutStormQuiescenceShm4", "shm");
}

TEST(Distributed, RepeatedRunsStayCollective) {
  if (px::test::is_rank_child()) {
    runtime rt;
    const auto n = static_cast<std::uint32_t>(rt.num_localities());
    // Three full run/quiesce rounds: the bootstrap collectives must stay
    // aligned across rounds, not just survive one.
    for (int round = 0; round < 3; ++round) {
      rt.run([&] {
        if (rt.rank() != 0) return;
        for (std::uint32_t r = 1; r < n; ++r) {
          for (int i = 0; i < 20; ++i) {
            core::apply<&storm_hit>(rt.locality_gid(r));
          }
        }
      });
    }
    if (rt.rank() == 0) {
      EXPECT_EQ(g_tally.load(), 3u * 20u * (n - 1));
    } else {
      EXPECT_EQ(g_hits.load(), 3u * 20u);
    }
    rt.stop();
    return;
  }
  px::test::run_ranks(2, "Distributed.RepeatedRunsStayCollective");
}

TEST(Distributed, QueryCounterAcrossProcesses) {
  constexpr int kPings = 30;
  if (px::test::is_rank_child()) {
    runtime rt;
    rt.run([&] {
      if (rt.rank() != 0) return;
      for (int i = 0; i < kPings; ++i) {
        auto fut = core::async<&ping>(rt.locality_gid(1),
                                      static_cast<std::uint64_t>(i));
        EXPECT_EQ(fut.get(), static_cast<std::uint64_t>(i) + 1);
      }
      // The counter gid was allocated by *this* process's boot replay but
      // is sampled live in rank 1's process — introspection pays the same
      // parcel round trip as any other remote read.
      auto delivered = introspect::query_counter(
          rt.here(), "runtime/loc1/parcels/delivered");
      ASSERT_TRUE(delivered.has_value());
      EXPECT_GE(delivered->get(), static_cast<std::uint64_t>(kPings));
      auto msgs_rx =
          introspect::query_counter(rt.here(), "runtime/loc1/net/msgs_rx");
      ASSERT_TRUE(msgs_rx.has_value());
      EXPECT_GE(msgs_rx->get(), 1u);
      // Local read of a *remote* counter must refuse (no sampler here)
      // rather than return this process's number for rank 1's path.
      EXPECT_FALSE(
          rt.introspection().read("runtime/loc1/parcels/delivered")
              .has_value());
    });
    rt.stop();
    return;
  }
  px::test::run_ranks(2, "Distributed.QueryCounterAcrossProcesses");
}

// Same cross-process counter query over the shared-memory data plane: the
// introspection round trip must be backend-agnostic.
TEST(Distributed, QueryCounterAcrossProcessesShm) {
  constexpr int kPings = 30;
  if (px::test::is_rank_child()) {
    runtime rt;
    rt.run([&] {
      if (rt.rank() != 0) return;
      for (int i = 0; i < kPings; ++i) {
        auto fut = core::async<&ping>(rt.locality_gid(1),
                                      static_cast<std::uint64_t>(i));
        EXPECT_EQ(fut.get(), static_cast<std::uint64_t>(i) + 1);
      }
      auto delivered = introspect::query_counter(
          rt.here(), "runtime/loc1/parcels/delivered");
      ASSERT_TRUE(delivered.has_value());
      EXPECT_GE(delivered->get(), static_cast<std::uint64_t>(kPings));
      auto msgs_rx =
          introspect::query_counter(rt.here(), "runtime/loc1/net/msgs_rx");
      ASSERT_TRUE(msgs_rx.has_value());
      EXPECT_GE(msgs_rx->get(), 1u);
      // The distributed rebalancer's probe: rank 1's ready depth is
      // load-dependent, so what must hold is that the remote sampler
      // answers (the future resolves) rather than hanging or refusing.
      auto depth = introspect::query_counter(
          rt.here(), "runtime/loc1/sched/ready_depth");
      ASSERT_TRUE(depth.has_value());
      (void)depth->get();
      EXPECT_FALSE(
          rt.introspection().read("runtime/loc1/parcels/delivered")
              .has_value());
    });
    rt.stop();
    return;
  }
  px::test::run_ranks(2, "Distributed.QueryCounterAcrossProcessesShm", "shm");
}

// The wire totals the new per-locality net/* counters report must line up
// with what actually crossed the transport.
TEST(Distributed, LinkCountersSeeRealTraffic) {
  if (px::test::is_rank_child()) {
    runtime rt;
    rt.run([&] {
      if (rt.rank() != 0) return;
      for (int i = 0; i < 10; ++i) {
        auto fut = core::async<&ping>(rt.locality_gid(1),
                                      static_cast<std::uint64_t>(i));
        fut.get();
      }
    });
    const auto link = rt.transport().link(rt.rank());
    EXPECT_GT(link.bytes_tx, 0u);
    EXPECT_GT(link.bytes_rx, 0u);
    EXPECT_GT(link.msgs_tx, 0u);
    EXPECT_GT(link.msgs_rx, 0u);
    rt.stop();
    return;
  }
  px::test::run_ranks(2, "Distributed.LinkCountersSeeRealTraffic");
}

// ===================================================================
// Cross-process AGAS migration (PR 5).
//
// Phase discipline: every rt.run() below is a collective — each phase ends
// at *global* quiescence, so a phase's parcels (including owner hints and
// handoff acks) are fully drained before the next phase's assertions read
// local state.

// A migratable payload every rank can reconstruct (same binary).
struct mig_payload {
  std::uint64_t value = 0;

  template <typename Ar>
  friend void serialize(Ar& ar, mig_payload& p) {
    ar& p.value;
  }
};
PX_REGISTER_MIGRATABLE(mig_payload)

constexpr std::size_t kMaxObjs = 16;
std::array<std::atomic<std::uint64_t>, kMaxObjs> g_objs{};
void announce_obj(std::uint64_t slot, std::uint64_t bits) {
  g_objs[slot].store(bits);
}
PX_REGISTER_ACTION(announce_obj)

// Dispatch counter: bumps wherever the destination object currently lives,
// so per-process sums measure exactly-once delivery under migration.
std::atomic<std::uint64_t> g_pokes{0};
void poke() { g_pokes.fetch_add(1); }
PX_REGISTER_ACTION(poke)

// Book-keeping report each rank sends to rank 0 from a snapshot taken at a
// globally quiescent point: the machine-wide parcel conservation law is
//   sum(sent) == sum(delivered - forwarded) + sum(dropped)
// (delivered counts every landing, forwarded subtracts the re-routed ones,
// dropped accounts parcels retired by the hop bound).
struct books {
  std::atomic<std::uint64_t> reports{0};
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> forwarded{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> pokes_dispatched{0};
  std::atomic<std::uint64_t> pokes_sent{0};
};
books g_books;

void report_books(std::uint64_t sent, std::uint64_t delivered,
                  std::uint64_t forwarded, std::uint64_t dropped,
                  std::uint64_t pokes_dispatched, std::uint64_t pokes_sent) {
  g_books.sent.fetch_add(sent);
  g_books.delivered.fetch_add(delivered);
  g_books.forwarded.fetch_add(forwarded);
  g_books.dropped.fetch_add(dropped);
  g_books.pokes_dispatched.fetch_add(pokes_dispatched);
  g_books.pokes_sent.fetch_add(pokes_sent);
  g_books.reports.fetch_add(1);
}
PX_REGISTER_ACTION(report_books)

// Snapshot local books (call only between collective runs) and ship them
// to rank 0 inside one more collective run; returns after it completes.
void gather_books(runtime& rt, std::uint64_t pokes_sent_here) {
  const auto st = rt.here().stats();
  const std::uint64_t pokes_here = g_pokes.load();
  // Barrier before reporting: the quiescence verdict reaches the non-root
  // ranks slightly before rank 0 returns from the collective, so without
  // this a fast rank's report parcel can land on rank 0 *before* rank 0
  // snapshots — inflating its delivered count with a post-snapshot send.
  // An empty collective cannot complete until every rank (and so every
  // snapshot above) has entered it.
  rt.run([] {});
  rt.run([&] {
    core::apply<&report_books>(rt.locality_gid(0), st.parcels_sent,
                               st.parcels_delivered, st.parcels_forwarded,
                               st.parcels_dropped, pokes_here,
                               pokes_sent_here);
  });
}

void expect_conservation() {
  EXPECT_EQ(g_books.sent.load(),
            g_books.delivered.load() - g_books.forwarded.load() +
                g_books.dropped.load());
  EXPECT_EQ(g_books.pokes_dispatched.load(), g_books.pokes_sent.load());
}

// An object migrates home -> rank 1 -> rank 2 while every rank keeps
// poking it; dispatches land wherever the object is, senders converge via
// piggybacked owner hints, stale hints self-correct, and the machine-wide
// books reconcile exactly-once delivery.
TEST(Distributed, MigrationMovesObjectAndParcelsFollow4) {
  constexpr std::uint64_t kPokes = 40;
  if (px::test::is_rank_child()) {
    runtime rt;
    const auto n = static_cast<std::uint32_t>(rt.num_localities());
    std::uint64_t pokes_sent_here = 0;

    // Phase 1: rank 0 creates the migratable object and announces its gid.
    rt.run([&] {
      if (rt.rank() != 0) return;
      const gas::gid o = rt.new_migratable<mig_payload>(0, 7ull);
      for (std::uint32_t r = 0; r < n; ++r) {
        core::apply<&announce_obj>(rt.locality_gid(r), 0ull, o.bits());
      }
    });
    const gas::gid o = gas::gid::from_bits(g_objs[0].load());
    ASSERT_TRUE(o.valid());

    // Phase 2: everyone pokes the object at its home.
    rt.run([&] {
      for (std::uint64_t i = 0; i < kPokes; ++i) core::apply<&poke>(o);
    });
    pokes_sent_here += kPokes;
    if (rt.rank() == 0) {
      EXPECT_EQ(g_pokes.load(), n * kPokes);
    }

    // Phase 3: migrate off the home rank.
    rt.run([&] {
      if (rt.rank() == 0) {
        EXPECT_TRUE(rt.migrate_gid(o, 1));
      }
    });
    if (rt.rank() == 0) {
      EXPECT_FALSE(rt.here().has_object(o));
      const auto owner = rt.gas().resolve_authoritative(0, o);
      ASSERT_TRUE(owner.has_value());
      EXPECT_EQ(*owner, 1u);
    }
    if (rt.rank() == 1) {
      EXPECT_TRUE(rt.here().has_object(o));
    }

    // Phase 4: everyone pokes again — senders route via home forwarding
    // and converge on direct routing through the piggybacked hints.
    rt.run([&] {
      for (std::uint64_t i = 0; i < kPokes; ++i) core::apply<&poke>(o);
    });
    pokes_sent_here += kPokes;
    if (rt.rank() == 1) {
      EXPECT_EQ(g_pokes.load(), n * kPokes);
    }
    if (rt.rank() >= 2) {
      const auto hint = rt.gas().cached(rt.rank(), o);
      ASSERT_TRUE(hint.has_value());
      EXPECT_EQ(*hint, 1u);
    }

    // Barrier: the hint assertions above must finish on every rank before
    // any rank starts phase 5 (its implant would legitimately rewrite
    // rank 2's hint mid-assertion).
    rt.run([] {});

    // Phase 5: migrate again (initiated by the *current* owner, not the
    // home), leaving rank 2+'s hints stale.
    rt.run([&] {
      if (rt.rank() == 1) {
        EXPECT_TRUE(rt.migrate_gid(o, 2));
      }
    });

    // Phase 6: rank 3 pokes on its stale hint — the parcel lands at the
    // ex-owner, gets invalidated+rerouted via home, and still dispatches
    // exactly once at rank 2.
    rt.run([&] {
      if (rt.rank() != 3) return;
      for (std::uint64_t i = 0; i < kPokes; ++i) core::apply<&poke>(o);
    });
    if (rt.rank() == 3) pokes_sent_here += kPokes;
    if (rt.rank() == 2) {
      EXPECT_EQ(g_pokes.load(), kPokes);
    }

    gather_books(rt, pokes_sent_here);
    if (rt.rank() == 0) {
      EXPECT_EQ(g_books.reports.load(), n);
      EXPECT_EQ(g_books.dropped.load(), 0u);
      expect_conservation();
    }
    rt.stop();
    return;
  }
  px::test::run_ranks(4, "Distributed.MigrationMovesObjectAndParcelsFollow4");
}

// With the forward budget at zero, a parcel that needs even one home
// forward is dropped with a diagnostic and the conservation books still
// reconcile; the piggybacked hint (sent before the drop) lets the next
// poke route directly and land.
TEST(Distributed, ForwardBoundExhaustedDropsWithDiagnostic) {
  if (px::test::is_rank_child()) {
    runtime_params p;
    p.max_forwards = 0;
    runtime rt(p);

    rt.run([&] {
      if (rt.rank() != 0) return;
      const gas::gid o = rt.new_migratable<mig_payload>(0, 1ull);
      for (std::uint32_t r = 0; r < 3; ++r) {
        core::apply<&announce_obj>(rt.locality_gid(r), 0ull, o.bits());
      }
    });
    const gas::gid o = gas::gid::from_bits(g_objs[0].load());

    rt.run([&] {
      if (rt.rank() == 0) {
        EXPECT_TRUE(rt.migrate_gid(o, 1));
      }
    });

    // One poke from rank 2: home-routed, needs a forward, budget is 0.
    rt.run([&] {
      if (rt.rank() == 2) core::apply<&poke>(o);
    });
    if (rt.rank() == 0) {
      EXPECT_EQ(rt.here().stats().parcels_dropped, 1u);
    }
    if (rt.rank() == 1) {
      EXPECT_EQ(g_pokes.load(), 0u);
    }
    if (rt.rank() == 2) {
      // The hint still arrived (feedback precedes the drop)...
      const auto hint = rt.gas().cached(rt.rank(), o);
      ASSERT_TRUE(hint.has_value());
      EXPECT_EQ(*hint, 1u);
    }

    // Barrier: rank 1's zero-dispatch assertion must land before rank 2's
    // retry can reach it.
    rt.run([] {});

    // ...so the retry routes directly and dispatches.
    rt.run([&] {
      if (rt.rank() == 2) core::apply<&poke>(o);
    });
    if (rt.rank() == 1) {
      EXPECT_EQ(g_pokes.load(), 1u);
    }

    gather_books(rt, rt.rank() == 2 ? 2u : 0u);
    if (rt.rank() == 0) {
      EXPECT_EQ(g_books.dropped.load(), 1u);
      EXPECT_EQ(g_books.sent.load(),
                g_books.delivered.load() - g_books.forwarded.load() +
                    g_books.dropped.load());
      // One of the two pokes was dropped, one dispatched.
      EXPECT_EQ(g_books.pokes_dispatched.load(), 1u);
    }
    rt.stop();
    return;
  }
  px::test::run_ranks(3, "Distributed.ForwardBoundExhaustedDropsWithDiagnostic");
}

// Migration storm: rank 0 migrates a whole population of hot objects while
// every rank keeps a parcel storm pointed at them.  Every poke dispatches
// exactly once somewhere, nothing drops, and the books reconcile.  Shared
// rank body — the shm variant reruns it over rings instead of sockets,
// where the forwarding races are tighter (no kernel socket buffering to
// space the parcels out).
void migration_storm_rank_body() {
  constexpr std::size_t kObjs = 6;
  constexpr std::uint64_t kPokes = 25;  // per rank per object
  runtime rt;
  const auto n = static_cast<std::uint32_t>(rt.num_localities());

  rt.run([&] {
    if (rt.rank() != 0) return;
    for (std::size_t i = 0; i < kObjs; ++i) {
      const gas::gid o = rt.new_migratable<mig_payload>(0, i);
      for (std::uint32_t r = 0; r < n; ++r) {
        core::apply<&announce_obj>(rt.locality_gid(r), i, o.bits());
      }
    }
  });

  // One collective run: the storm races the migrations.
  rt.run([&] {
    if (rt.rank() == 0) {
      // Interleave: migrate each object away mid-storm.
      for (std::size_t i = 0; i < kObjs; ++i) {
        for (std::uint64_t k = 0; k < kPokes; ++k) {
          core::apply<&poke>(gas::gid::from_bits(g_objs[i].load()));
        }
        EXPECT_TRUE(rt.migrate_gid(gas::gid::from_bits(g_objs[i].load()),
                                   1 + static_cast<gas::locality_id>(
                                           i % (n - 1))));
      }
    } else {
      for (std::size_t i = 0; i < kObjs; ++i) {
        for (std::uint64_t k = 0; k < kPokes; ++k) {
          core::apply<&poke>(gas::gid::from_bits(g_objs[i].load()));
        }
      }
    }
  });

  gather_books(rt, kObjs * kPokes);
  if (rt.rank() == 0) {
    EXPECT_EQ(g_books.reports.load(), n);
    EXPECT_EQ(g_books.dropped.load(), 0u);
    EXPECT_EQ(g_books.pokes_dispatched.load(),
              static_cast<std::uint64_t>(n) * kObjs * kPokes);
    expect_conservation();
    // The population really left home.
    EXPECT_EQ(rt.here().object_count(), 0u);
  }
  rt.stop();
}

TEST(Distributed, MigrationStorm4) {
  if (px::test::is_rank_child()) {
    migration_storm_rank_body();
    return;
  }
  px::test::run_ranks(4, "Distributed.MigrationStorm4");
}

TEST(Distributed, MigrationStormShm4) {
  if (px::test::is_rank_child()) {
    migration_storm_rank_body();
    return;
  }
  px::test::run_ranks(4, "Distributed.MigrationStormShm4", "shm");
}

// End-to-end adaptive loop over real sockets: a skewed message-driven
// workload pinned to rank 0, the distributed rebalancer sampling remote
// ready depths via query_counter and shipping hot objects away through
// px.migrate_object — chains follow their objects, every hop dispatches
// exactly once, and rank 0 ends the run lighter than it started.
std::atomic<std::uint64_t> g_hops_done{0};
void dist_chain_hop(std::uint64_t gid_bits, std::uint32_t remaining) {
  // A short blocking service hold: queued hops behind it wait, which is
  // what builds the ready-depth skew the rebalancer feeds on.
  std::this_thread::sleep_for(std::chrono::microseconds(50));
  g_hops_done.fetch_add(1);
  if (remaining > 0) {
    core::apply<&dist_chain_hop>(gas::gid::from_bits(gid_bits), gid_bits,
                                 remaining - 1);
  }
}
PX_REGISTER_ACTION(dist_chain_hop)

std::uint64_t hops_report() { return g_hops_done.load(); }
PX_REGISTER_ACTION(hops_report)

TEST(Distributed, RebalancerMigratesAcrossRanks4) {
  constexpr std::size_t kObjs = 10;
  constexpr std::uint32_t kHops = 50;
  if (px::test::is_rank_child()) {
    runtime_params p;
    p.rebalance = 1;
    p.rebalance_min_depth = 4;
    p.rebalance_interval_us = 50;  // x16 between distributed rounds
    runtime rt(p);
    ASSERT_TRUE(rt.balancer().enabled());
    const auto n = static_cast<std::uint32_t>(rt.num_localities());

    rt.run([&] {
      if (rt.rank() != 0) return;
      for (std::size_t i = 0; i < kObjs; ++i) {
        const gas::gid o = rt.new_migratable<mig_payload>(0, i);
        for (std::uint32_t r = 0; r < n; ++r) {
          core::apply<&announce_obj>(rt.locality_gid(r), i, o.bits());
        }
      }
    });

    rt.run([&] {
      if (rt.rank() != 0) return;
      for (std::size_t i = 0; i < kObjs; ++i) {
        core::apply<&dist_chain_hop>(gas::gid::from_bits(g_objs[i].load()),
                                     g_objs[i].load(), kHops - 1);
      }
    });

    // Exactly-once across the machine: gather per-rank hop counts.
    rt.run([&] {
      if (rt.rank() != 0) return;
      std::uint64_t total = 0;
      for (std::uint32_t r = 0; r < n; ++r) {
        total += core::async<&hops_report>(rt.locality_gid(r)).get();
      }
      EXPECT_EQ(total, static_cast<std::uint64_t>(kObjs) * kHops);
    });
    if (rt.rank() == 0) {
      EXPECT_GE(rt.balancer().stats().objects_migrated, 1u);
      EXPECT_LT(rt.here().object_count(), kObjs);
    }
    rt.stop();
    return;
  }
  px::test::run_ranks(4, "Distributed.RebalancerMigratesAcrossRanks4");
}

// Typed tracked children place work on any rank of a process span: the
// activity token is taken at the primary before the parcel ships and a
// px.process_credit parcel returns it when the child retires, so
// terminated() observes genuinely remote work.
std::atomic<std::uint64_t> g_child_runs{0};
void child_work(std::uint64_t x) { g_child_runs.fetch_add(x); }
PX_REGISTER_PROCESS_CHILD(child_work)

TEST(Distributed, ProcessSpawnsTypedChildrenAcrossRanks) {
  if (px::test::is_rank_child()) {
    runtime rt;
    const auto n = static_cast<std::uint32_t>(rt.num_localities());
    rt.run([&] {
      if (rt.rank() != 0) return;
      std::vector<gas::locality_id> span;
      for (std::uint32_t r = 0; r < n; ++r) span.push_back(r);
      auto proc = core::create_process(rt, span);
      // Rebalancer off => spawn_any degenerates to round-robin: exactly
      // three children per rank.
      for (int i = 0; i < 12; ++i) proc->spawn_any<&child_work>(1ull);
      proc->seal();
      proc->terminated().get();
    });
    EXPECT_EQ(g_child_runs.load(), 3u);
    rt.stop();
    return;
  }
  px::test::run_ranks(4, "Distributed.ProcessSpawnsTypedChildrenAcrossRanks");
}

// Percolation across a process boundary: the staging credit a source
// acquires for a remote target must flow back to the *source's* window
// when the task retires (px.percolate_release), or the window wedges shut
// after staging_slots tasks.  40 sequential percolations through a
// 16-slot window prove the credits recycle.
std::uint64_t perc_task(std::uint64_t x) { return x * 2; }
PX_REGISTER_PERCOLATABLE(perc_task)

void percolate_rank_body() {
  runtime rt;
  rt.run([&] {
    if (rt.rank() != 0) return;
    for (std::uint64_t i = 0; i < 40; ++i) {
      auto fut = core::percolate<&perc_task>(1, i);
      EXPECT_EQ(fut.get(), 2 * i);
    }
  });
  if (rt.rank() == 0) {
    EXPECT_EQ(rt.percolation_mgr().stats().tasks_percolated, 40u);
  }
  rt.stop();
}

TEST(Distributed, PercolateAcrossRanksRecyclesSlots) {
  if (px::test::is_rank_child()) {
    percolate_rank_body();
    return;
  }
  px::test::run_ranks(2, "Distributed.PercolateAcrossRanksRecyclesSlots");
}

// The convolve-style staged-dataflow substrate (percolation windows and
// their credit recycling) over shm rings.
TEST(Distributed, PercolateAcrossRanksShm2) {
  if (px::test::is_rank_child()) {
    percolate_rank_body();
    return;
  }
  px::test::run_ranks(2, "Distributed.PercolateAcrossRanksShm2", "shm");
}

// ===================================================================
// PR 6: the retired remote_spawn surface, re-proved over its typed
// replacements — echo replication, litlx atomic sections, and grandchild
// credit splitting, each driven to global quiescence on 4 real ranks with
// the parcel conservation law checked at the end.

// ECHO-1 over TCP: an echo object created at rank 0, first-touch fetched
// by the other ranks, updated by rank 1, converged everywhere — the
// optimistic-copy protocol entirely over real sockets.
TEST(Distributed, EchoReplicasConvergeAcrossRanks4) {
  if (px::test::is_rank_child()) {
    runtime rt;
    const auto n = static_cast<std::uint32_t>(rt.num_localities());

    rt.run([&] {
      if (rt.rank() != 0) return;
      core::echo<std::uint64_t> var(rt, 0, 5ull);
      for (std::uint32_t r = 0; r < n; ++r) {
        core::apply<&announce_obj>(rt.locality_gid(r), 0ull,
                                   var.id().bits());
      }
    });
    core::echo<std::uint64_t> var(gas::gid::from_bits(g_objs[0].load()));
    ASSERT_TRUE(var.valid());

    // First touch: non-home ranks fetch the authoritative copy, implant a
    // local replica, and subsequent reads are replica hits.
    rt.run([&] {
      EXPECT_EQ(var.read().first, 5ull);
      EXPECT_EQ(var.read().first, 5ull);
    });

    // A non-home writer commits through the split-phase validate path.
    rt.run([&] {
      if (rt.rank() != 1) return;
      EXPECT_EQ(var.update([](std::uint64_t v) { return v + 10; }), 15ull);
    });

    // The commit's replica broadcast drained inside the collective above:
    // every rank's local replica now agrees.
    rt.run([&] { EXPECT_EQ(var.read().first, 15ull); });
    if (rt.rank() == 0) {
      EXPECT_GE(rt.echo_mgr().stats().commits_ok, 1u);
    }

    gather_books(rt, 0);
    if (rt.rank() == 0) {
      EXPECT_EQ(g_books.reports.load(), n);
      EXPECT_EQ(g_books.dropped.load(), 0u);
      expect_conservation();
    }
    rt.stop();
    return;
  }
  px::test::run_ranks(4, "Distributed.EchoReplicasConvergeAcrossRanks4");
}

// LITL-X atomic sections over TCP: every rank hammers one guarded cell at
// rank 0 through the typed-section parcels; the handoffs ride the same
// per-locality parcel accounting as every other parcel (identical in sim
// and tcp), and the count is exact.
std::int64_t add_i64(std::int64_t& value, std::int64_t d) {
  value += d;
  return value;
}
PX_REGISTER_ATOMIC_SECTION(std::int64_t, add_i64)

std::int64_t read_i64(std::int64_t& value) { return value; }
PX_REGISTER_ATOMIC_SECTION(std::int64_t, read_i64)

TEST(Distributed, LitlxAtomicSectionsAcrossRanks4) {
  constexpr std::uint64_t kOps = 25;
  if (px::test::is_rank_child()) {
    runtime rt;
    const auto n = static_cast<std::uint32_t>(rt.num_localities());

    rt.run([&] {
      if (rt.rank() != 0) return;
      litlx::atomic_object<std::int64_t> acc(rt, 0, 0);
      for (std::uint32_t r = 0; r < n; ++r) {
        core::apply<&announce_obj>(rt.locality_gid(r), 0ull, acc.id().bits());
      }
    });
    litlx::atomic_object<std::int64_t> acc(
        gas::gid::from_bits(g_objs[0].load()));

    const std::uint64_t sent_before = rt.here().stats().parcels_sent;
    rt.run([&] {
      std::vector<lco::future<std::int64_t>> acks;
      for (std::uint64_t i = 0; i < kOps; ++i) {
        acks.push_back(acc.atomically<&add_i64>(std::int64_t{1}));
      }
      for (auto& a : acks) a.get();
    });
    rt.run([&] {
      if (rt.rank() != 0) return;
      EXPECT_EQ(acc.atomically<&read_i64>().get(),
                static_cast<std::int64_t>(n * kOps));
    });
    if (rt.rank() != 0) {
      // Satellite check: each section handoff was a real counted parcel.
      EXPECT_GE(rt.here().stats().parcels_sent - sent_before, kOps);
    }

    gather_books(rt, 0);
    if (rt.rank() == 0) {
      EXPECT_EQ(g_books.reports.load(), n);
      EXPECT_EQ(g_books.dropped.load(), 0u);
      expect_conservation();
    }
    rt.stop();
    return;
  }
  px::test::run_ranks(4, "Distributed.LitlxAtomicSectionsAcrossRanks4");
}

// Credit splitting: remote children spawn tracked grandchildren through
// process_ref — no round trip to the primary — and the primary's
// termination event still waits for every leaf, wherever spawn_any placed
// it.  The site ledgers drain leaf-first and the books reconcile.
std::atomic<std::uint64_t> g_leaves{0};
void grand_leaf(std::uint64_t x) { g_leaves.fetch_add(x); }
PX_REGISTER_PROCESS_CHILD(grand_leaf)

void grand_parent(std::uint64_t proc_bits, std::uint64_t kids) {
  core::runtime& rt = core::this_locality()->rt();
  core::process_ref ref(rt, proc_bits);
  for (std::uint64_t i = 0; i < kids; ++i) {
    ref.spawn_any<&grand_leaf>(1ull);  // splits this rank's credit
  }
}
PX_REGISTER_PROCESS_CHILD(grand_parent)

std::uint64_t leaves_report() { return g_leaves.load(); }
PX_REGISTER_ACTION(leaves_report)

TEST(Distributed, GrandchildrenSplitCreditsAcrossRanks4) {
  constexpr std::uint64_t kKids = 8;
  if (px::test::is_rank_child()) {
    runtime rt;
    const auto n = static_cast<std::uint32_t>(rt.num_localities());

    rt.run([&] {
      if (rt.rank() != 0) return;
      std::vector<gas::locality_id> span;
      for (std::uint32_t r = 0; r < n; ++r) span.push_back(r);
      auto proc = core::create_process(rt, span);
      for (std::uint32_t r = 1; r < n; ++r) {
        proc->spawn_on<&grand_parent>(r, proc->id().bits(), kKids);
      }
      proc->seal();
      // Fires only after every grandchild — spawned remotely, placed
      // anywhere by spawn_any — has retired and its split credit returned.
      proc->terminated().get();
      std::uint64_t total = 0;
      for (std::uint32_t r = 0; r < n; ++r) {
        total += core::async<&leaves_report>(rt.locality_gid(r)).get();
      }
      EXPECT_EQ(total, static_cast<std::uint64_t>(n - 1) * kKids);
    });

    gather_books(rt, 0);
    if (rt.rank() == 0) {
      EXPECT_EQ(g_books.reports.load(), n);
      EXPECT_EQ(g_books.dropped.load(), 0u);
      expect_conservation();
    }
    rt.stop();
    return;
  }
  px::test::run_ranks(4, "Distributed.GrandchildrenSplitCreditsAcrossRanks4");
}

}  // namespace
