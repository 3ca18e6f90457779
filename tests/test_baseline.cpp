// Tests: the CSP/message-passing baseline runtime.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "baseline/csp.hpp"

namespace {

using namespace px;
using baseline::csp_params;
using baseline::csp_runtime;
using baseline::rank_context;

csp_params quick(std::size_t ranks) {
  csp_params p;
  p.ranks = ranks;
  return p;
}

TEST(Csp, PingPong) {
  csp_runtime rt(quick(2));
  std::atomic<int> got{0};
  rt.run([&](rank_context& ctx) {
    if (ctx.rank() == 0) {
      ctx.send_value(1, 7, 123);
      got.store(ctx.recv_value<int>(1, 8));
    } else {
      const int v = ctx.recv_value<int>(0, 7);
      ctx.send_value(0, 8, v + 1);
    }
  });
  EXPECT_EQ(got.load(), 124);
}

TEST(Csp, RecvMatchesOnSourceAndTag) {
  csp_runtime rt(quick(3));
  std::atomic<int> from1{0}, from2{0};
  rt.run([&](rank_context& ctx) {
    if (ctx.rank() == 0) {
      // Receive rank 2's message first even if rank 1's arrived earlier.
      from2.store(ctx.recv_value<int>(2, 5));
      from1.store(ctx.recv_value<int>(1, 5));
    } else {
      ctx.send_value(0, 5, ctx.rank() * 10);
    }
  });
  EXPECT_EQ(from1.load(), 10);
  EXPECT_EQ(from2.load(), 20);
}

TEST(Csp, WildcardSource) {
  csp_runtime rt(quick(4));
  std::atomic<int> sum{0};
  rt.run([&](rank_context& ctx) {
    if (ctx.rank() == 0) {
      int s = 0;
      for (int i = 1; i < ctx.size(); ++i) s += ctx.recv_value<int>(-1, 1);
      sum.store(s);
    } else {
      ctx.send_value(0, 1, ctx.rank());
    }
  });
  EXPECT_EQ(sum.load(), 6);
}

TEST(Csp, BarrierSynchronizesPhases) {
  csp_runtime rt(quick(4));
  std::atomic<int> phase1{0};
  std::atomic<bool> violated{false};
  rt.run([&](rank_context& ctx) {
    phase1.fetch_add(1);
    ctx.barrier();
    if (phase1.load() != 4) violated.store(true);
    ctx.barrier();
  });
  EXPECT_FALSE(violated.load());
}

TEST(Csp, RepeatedBarriersDoNotCrossMatch) {
  csp_runtime rt(quick(3));
  std::atomic<int> rounds_done{0};
  rt.run([&](rank_context& ctx) {
    for (int r = 0; r < 25; ++r) ctx.barrier();
    rounds_done.fetch_add(1);
  });
  EXPECT_EQ(rounds_done.load(), 3);
}

TEST(Csp, AllreduceSum) {
  csp_runtime rt(quick(5));
  std::atomic<int> correct{0};
  rt.run([&](rank_context& ctx) {
    const double total = ctx.allreduce_sum(static_cast<double>(ctx.rank()));
    if (total == 10.0) correct.fetch_add(1);  // 0+1+2+3+4
  });
  EXPECT_EQ(correct.load(), 5);
}

TEST(Csp, SelfSendBypassesFabric) {
  csp_runtime rt(quick(2));
  std::atomic<int> got{0};
  rt.run([&](rank_context& ctx) {
    if (ctx.rank() == 0) {
      ctx.send_value(0, 3, 55);
      got.store(ctx.recv_value<int>(0, 3));
    }
  });
  EXPECT_EQ(got.load(), 55);
  EXPECT_EQ(rt.fabric().stats(0).messages_sent, 0u);
}

TEST(Csp, LatencyIsImposedOnBlockingRecv) {
  csp_params p = quick(2);
  p.fabric.base_latency_ns = 2'000'000;  // 2ms
  csp_runtime rt(p);
  // The clock starts at the send, not at the receiver's entry into
  // recv_value: a receiver thread that starts late would otherwise have
  // part of the modelled latency elapse before its clock starts.
  std::atomic<std::int64_t> sent_ticks{0};
  std::atomic<std::int64_t> wait_us{0};
  rt.run([&](rank_context& ctx) {
    if (ctx.rank() == 0) {
      sent_ticks.store(
          std::chrono::steady_clock::now().time_since_epoch().count());
      ctx.send_value(1, 1, 0);
    } else {
      (void)ctx.recv_value<int>(0, 1);
      const std::chrono::steady_clock::time_point sent{
          std::chrono::steady_clock::duration{sent_ticks.load()}};
      wait_us.store(std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - sent)
                        .count());
    }
  });
  EXPECT_GE(wait_us.load(), 1000);
}

TEST(Csp, RingPassesTokenAround) {
  csp_runtime rt(quick(6));
  std::atomic<int> final_value{0};
  rt.run([&](rank_context& ctx) {
    const int next = (ctx.rank() + 1) % ctx.size();
    const int prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
    if (ctx.rank() == 0) {
      ctx.send_value(next, 2, 1);
      final_value.store(ctx.recv_value<int>(prev, 2));
    } else {
      const int v = ctx.recv_value<int>(prev, 2);
      ctx.send_value(next, 2, v + 1);
    }
  });
  EXPECT_EQ(final_value.load(), 6);
}

}  // namespace
