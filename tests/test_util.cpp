// Unit tests: util — serialization, histograms, RNG, config, queues, table.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "util/config.hpp"
#include "util/histogram.hpp"
#include "util/mpsc_queue.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/spinlock.hpp"
#include "util/table.hpp"
#include "util/ws_deque.hpp"

namespace {

using namespace px::util;

// ----------------------------------------------------------- serialization

struct custom_point {
  double x = 0, y = 0;
  std::string label;
  bool operator==(const custom_point&) const = default;
};

template <typename Ar>
void serialize(Ar& ar, custom_point& p) {
  ar& p.x& p.y& p.label;
}

TEST(Serialize, RoundTripsArithmetic) {
  auto bytes = to_bytes(std::int32_t{-7}, std::uint64_t{1ull << 40}, 2.5);
  input_archive in(bytes);
  std::int32_t a = 0;
  std::uint64_t b = 0;
  double c = 0;
  in& a& b& c;
  EXPECT_EQ(a, -7);
  EXPECT_EQ(b, 1ull << 40);
  EXPECT_EQ(c, 2.5);
  EXPECT_TRUE(in.exhausted());
}

TEST(Serialize, RoundTripsContainers) {
  std::vector<std::string> v{"alpha", "", "gamma"};
  std::vector<double> d{1.0, -2.0, 3.5};
  auto bytes = to_bytes(v, d);
  input_archive in(bytes);
  std::vector<std::string> v2;
  std::vector<double> d2;
  in& v2& d2;
  EXPECT_EQ(v, v2);
  EXPECT_EQ(d, d2);
}

TEST(Serialize, RoundTripsCustomTypeAndTuple) {
  custom_point p{3.0, -4.0, "origin-ish"};
  std::tuple<int, custom_point, std::optional<int>> t{5, p, std::nullopt};
  auto bytes = to_bytes(t);
  auto t2 = from_bytes<std::tuple<int, custom_point, std::optional<int>>>(bytes);
  EXPECT_EQ(std::get<0>(t2), 5);
  EXPECT_EQ(std::get<1>(t2), p);
  EXPECT_FALSE(std::get<2>(t2).has_value());
}

TEST(Serialize, OptionalWithValue) {
  std::optional<std::string> o{"present"};
  auto bytes = to_bytes(o);
  EXPECT_EQ(from_bytes<std::optional<std::string>>(bytes), o);
}

TEST(Serialize, EmptyVector) {
  std::vector<int> empty;
  auto bytes = to_bytes(empty);
  EXPECT_EQ(from_bytes<std::vector<int>>(bytes), empty);
}

// Property: encode/decode is identity over random payload shapes.
class SerializeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializeProperty, VectorOfPairsRoundTrip) {
  xoshiro256 rng(GetParam());
  std::vector<std::pair<std::uint64_t, std::string>> data;
  const auto n = rng.below(64);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string s(rng.below(32), 'x');
    for (auto& ch : s) ch = static_cast<char>('a' + rng.below(26));
    data.emplace_back(rng(), s);
  }
  auto bytes = to_bytes(data);
  auto back =
      from_bytes<std::vector<std::pair<std::uint64_t, std::string>>>(bytes);
  EXPECT_EQ(data, back);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------- stats

TEST(RunningStats, MeanVarianceMinMax) {
  running_stats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStats, MergeMatchesSequential) {
  running_stats a, b, all;
  xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5, 20);
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(LogHistogram, QuantilesWithinBucketError) {
  log_histogram h;
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  // p50 ~ 500; bucket quantization allows up to 2x error.
  EXPECT_GE(h.p50(), 250.0);
  EXPECT_LE(h.p50(), 1000.0);
  EXPECT_GE(h.p99(), 500.0);
  EXPECT_EQ(h.count(), 1000u);
}

TEST(LogHistogram, ZeroBucketReportsZeroNotMidpoint) {
  // An all-zero distribution has every quantile at 0 — the [0,1) bucket
  // must not interpolate to its midpoint.
  log_histogram h;
  for (int i = 0; i < 100; ++i) h.add(0.0);
  EXPECT_EQ(h.p50(), 0.0);
  EXPECT_EQ(h.p999(), 0.0);
  // Mixed: with 90% zeros, p50 stays 0 while the tail sees the spikes.
  log_histogram m;
  for (int i = 0; i < 90; ++i) m.add(0.0);
  for (int i = 0; i < 10; ++i) m.add(1000.0);
  EXPECT_EQ(m.p50(), 0.0);
  EXPECT_GE(m.p999(), 500.0);
  // Empty histogram: quantiles are 0, never NaN or a bucket artifact.
  EXPECT_EQ(log_histogram{}.p99(), 0.0);
}

TEST(LogHistogram, SnapshotIsDetachedAndConcurrentSafe) {
  log_histogram h;
  for (int i = 1; i <= 64; ++i) h.add(static_cast<double>(i));
  const log_histogram snap = h.snapshot();
  EXPECT_EQ(snap.count(), 64u);
  // Later adds don't bleed into the snapshot — it's a plain value.
  for (int i = 0; i < 1000; ++i) h.add(1e9);
  EXPECT_EQ(snap.count(), 64u);
  EXPECT_LE(snap.p999(), 128.0);
  // Writers and snapshotters race safely (the sampler-thread shape);
  // every snapshot is internally consistent: count matches stats count.
  log_histogram shared;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      shared.add(static_cast<double>(i++ % 1000));
    }
  });
  for (int i = 0; i < 2000; ++i) {
    const log_histogram s = shared.snapshot();
    EXPECT_EQ(s.count(), s.stats().count());
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

// ------------------------------------------------------------------ rng

TEST(Rng, DeterministicPerSeed) {
  xoshiro256 a(42), b(42), c(43);
  EXPECT_EQ(a(), b());
  xoshiro256 a2(42);
  (void)c;
  std::vector<std::uint64_t> s1, s2;
  for (int i = 0; i < 16; ++i) s1.push_back(a2());
  xoshiro256 a3(42);
  for (int i = 0; i < 16; ++i) s2.push_back(a3());
  EXPECT_EQ(s1, s2);
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  xoshiro256 rng(1);
  std::map<std::uint64_t, int> seen;
  for (int i = 0; i < 1000; ++i) seen[rng.below(7)]++;
  EXPECT_EQ(seen.size(), 7u);
  for (const auto& [v, n] : seen) {
    EXPECT_LT(v, 7u);
    EXPECT_GT(n, 50);  // roughly uniform
  }
}

TEST(Rng, SplitStreamsDiffer) {
  xoshiro256 parent(9);
  auto c1 = parent.split(1);
  auto c2 = parent.split(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (c1() == c2()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ExponentialHasRequestedMean) {
  xoshiro256 rng(5);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(10.0);
  EXPECT_NEAR(sum / kN, 10.0, 0.5);
}

// ---------------------------------------------------------------- config

TEST(Config, TypedAccessorsAndFallbacks) {
  config c;
  c.set("a.int", std::int64_t{42});
  c.set("a.str", "hello");
  c.set("a.bool", true);
  c.set("a.dbl", 2.5);
  EXPECT_EQ(c.get_int("a.int", 0), 42);
  EXPECT_EQ(c.get_string("a.str", ""), "hello");
  EXPECT_TRUE(c.get_bool("a.bool", false));
  EXPECT_DOUBLE_EQ(c.get_double("a.dbl", 0), 2.5);
  EXPECT_EQ(c.get_int("missing", -1), -1);
  EXPECT_FALSE(c.contains("missing"));
}

TEST(Config, EnvNameMapping) {
  EXPECT_EQ(config::env_name_for("scheduler.workers"), "PX_SCHEDULER_WORKERS");
}

// Regression: the environment loader flattens every '_' to '.', so a key
// whose last segment contains an underscore ("rebalance.min_depth", from
// PX_REBALANCE_MIN_DEPTH) must still find the normalized entry — these
// tuning knobs were silently dead otherwise.
TEST(Config, UnderscoreKeysFindEnvDerivedEntries) {
  config c;
  c.set("rebalance.min.depth", std::int64_t{7});  // as load_environment stores
  c.set("parcel.eager.flush", false);
  EXPECT_EQ(c.get_int("rebalance.min_depth", 0), 7);
  EXPECT_FALSE(c.get_bool("parcel.eager_flush", true));
  // An exact-key set() still wins over the normalized spelling.
  c.set("rebalance.min_depth", std::int64_t{9});
  EXPECT_EQ(c.get_int("rebalance.min_depth", 0), 9);
}

TEST(Config, LoadEnvironmentPicksUpPxVariables) {
  ::setenv("PX_TEST_UNDERSCORE_KNOB", "123", 1);
  config c;
  c.load_environment();
  EXPECT_EQ(c.get_int("test.underscore.knob", 0), 123);
  // The spelling a caller would naturally use for a two-word field.
  EXPECT_EQ(c.get_int("test.underscore_knob", 0), 123);
  ::unsetenv("PX_TEST_UNDERSCORE_KNOB");
}

TEST(Config, MalformedNumbersFallBack) {
  config c;
  c.set("k", "not-a-number");
  EXPECT_EQ(c.get_int("k", 5), 5);
  EXPECT_EQ(c.get_double("k", 1.5), 1.5);
}

// ------------------------------------------------------------- ws_deque

TEST(WsDeque, LifoForOwnerFifoForThief) {
  ws_deque<int*> d;
  int items[4] = {0, 1, 2, 3};
  for (auto& i : items) d.push(&i);
  EXPECT_EQ(d.steal().value(), &items[0]);  // oldest
  EXPECT_EQ(d.pop().value(), &items[3]);    // newest
  EXPECT_EQ(d.pop().value(), &items[2]);
  EXPECT_EQ(d.steal().value(), &items[1]);
  EXPECT_FALSE(d.pop().has_value());
  EXPECT_FALSE(d.steal().has_value());
}

TEST(WsDeque, GrowsPastInitialCapacity) {
  ws_deque<int*> d(4);
  std::vector<int> storage(1000);
  for (auto& x : storage) d.push(&x);
  for (int i = 999; i >= 0; --i) {
    auto got = d.pop();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, &storage[static_cast<std::size_t>(i)]);
  }
}

TEST(WsDeque, ConcurrentStealersLoseNothing) {
  ws_deque<std::uintptr_t*> d;
  constexpr std::uintptr_t kN = 100000;
  std::atomic<std::uint64_t> taken{0};
  std::atomic<bool> done_pushing{false};

  std::vector<std::thread> thieves;
  for (int t = 0; t < 3; ++t) {
    thieves.emplace_back([&] {
      while (!done_pushing.load() || d.size_estimate() > 0) {
        if (d.steal()) taken.fetch_add(1);
      }
    });
  }
  for (std::uintptr_t i = 1; i <= kN; ++i) {
    d.push(reinterpret_cast<std::uintptr_t*>(i));
    if (i % 16 == 0) {
      if (d.pop()) taken.fetch_add(1);
    }
  }
  done_pushing.store(true);
  for (auto& t : thieves) t.join();
  while (d.pop()) taken.fetch_add(1);
  EXPECT_EQ(taken.load(), kN);
}

// ------------------------------------------------------------ mpsc queue

struct test_node {
  std::atomic<test_node*> next{nullptr};
  int value = 0;
};

TEST(MpscQueue, FifoSingleProducer) {
  intrusive_mpsc_queue<test_node> q;
  test_node nodes[8];
  for (int i = 0; i < 8; ++i) {
    nodes[i].value = i;
    q.push(&nodes[i]);
  }
  for (int i = 0; i < 8; ++i) {
    test_node* n = q.pop();
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->value, i);
  }
  EXPECT_EQ(q.pop(), nullptr);
}

TEST(MpscQueue, ManyProducersOneConsumer) {
  intrusive_mpsc_queue<test_node> q;
  constexpr int kPerProducer = 20000;
  constexpr int kProducers = 4;
  // test_node is immovable (atomic member); use fixed arrays.
  std::vector<std::unique_ptr<test_node[]>> storage;
  for (int p = 0; p < kProducers; ++p) {
    storage.push_back(std::make_unique<test_node[]>(kPerProducer));
  }

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        storage[static_cast<std::size_t>(p)][i].value = 1;
        q.push(&storage[static_cast<std::size_t>(p)][i]);
      }
    });
  }
  std::uint64_t got = 0;
  while (got < kPerProducer * kProducers) {
    if (q.pop() != nullptr) ++got;
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(got, static_cast<std::uint64_t>(kPerProducer * kProducers));
  EXPECT_EQ(q.pop(), nullptr);
}

// After pop() returns nullptr, empty_estimate() may say "empty" only if
// every push that had finished before that pop() began was popped.  The
// scheduler parks on that answer, so a live node it hides costs a full
// park timeout.  The race this pins: a push landing inside pop()'s stub
// re-push leaves the stub as head_ behind a node pop() declined to return.
TEST(MpscQueue, EmptyEstimateNeverHidesAFinishedPush) {
  intrusive_mpsc_queue<test_node> q;
  constexpr int kPerProducer = 200000;
  constexpr int kProducers = 2;
  std::vector<std::unique_ptr<test_node[]>> storage;
  for (int p = 0; p < kProducers; ++p) {
    storage.push_back(std::make_unique<test_node[]>(kPerProducer));
  }
  std::atomic<std::uint64_t> finished{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.push(&storage[static_cast<std::size_t>(p)][i]);
        finished.fetch_add(1, std::memory_order_release);
        // Let the consumer catch up, so the queue keeps running dry and
        // pop() keeps taking the stub re-push path.
        for (int k = 0; k < 16; ++k) cpu_relax();
      }
    });
  }
  std::uint64_t got = 0;
  std::uint64_t hidden = 0;
  while (got < kPerProducer * kProducers) {
    const std::uint64_t before = finished.load(std::memory_order_acquire);
    if (q.pop() != nullptr) {
      ++got;
    } else if (q.empty_estimate() && got < before) {
      ++hidden;
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(hidden, 0u);
  EXPECT_TRUE(q.empty_estimate());
}

TEST(BlockingQueue, CloseReleasesBlockedPop) {
  blocking_queue<int> q;
  std::thread t([&] {
    auto v = q.pop();
    EXPECT_FALSE(v.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  t.join();
}

// ---------------------------------------------------------------- table

TEST(TextTable, RendersAlignedWithHeaders) {
  text_table t({"name", "value"});
  t.add_row("alpha", 1);
  t.add_row("bb", 2.5);
  const std::string s = t.render("Title");
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("2.5"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, CsvOutput) {
  text_table t({"a", "b"});
  t.add_row(1, 2);
  EXPECT_EQ(t.render_csv(), "a,b\n1,2\n");
}

TEST(SiFormat, ScalesUnits) {
  EXPECT_EQ(si_format(1.5e18, "FLOPS"), "1.5 EFLOPS");
  EXPECT_EQ(si_format(4e15, "B"), "4 PB");
  EXPECT_EQ(si_format(10e12, "FLOPS"), "10 TFLOPS");
}

// --------------------------------------------------------------- spinlock

TEST(Spinlock, MutualExclusionUnderContention) {
  spinlock lock;
  std::int64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50000; ++i) {
        std::lock_guard guard(lock);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 200000);
}

}  // namespace
