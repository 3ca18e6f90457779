// Flight recorder (src/trace/): rings, causal context, the parcel wire
// extension, the counter snapshot/delta helper, and the events and
// counters sections of the end-to-end telemetry shard — single-process
// and across real processes.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/action.hpp"
#include "core/runtime.hpp"
#include "distributed_helpers.hpp"
#include "parcel/parcel.hpp"
#include "telemetry_shard.hpp"
#include "trace/trace.hpp"

namespace {

using namespace px;
using core::runtime;
using core::runtime_params;

std::uint64_t trace_ping(std::uint64_t x) { return x + 1; }
PX_REGISTER_ACTION(trace_ping)

using test::read_telemetry_shard;
using test::telemetry_shard;
using util::section_kind;

// ------------------------------------------------------- ring + id basics

TEST(Trace, FullRingDropsInsteadOfBlocking) {
  auto& rec = trace::recorder::global();
  // 64 slots is the configure() floor; ask for exactly it.
  rec.configure(true, 64 * sizeof(trace::event), 0);
  const std::uint64_t events0 = rec.events_total();
  const std::uint64_t drops0 = rec.drops_total();
  for (int i = 0; i < 100; ++i) {
    trace::emit(trace::event_kind::lco_fire, 1, 2, 0, i);
  }
  EXPECT_EQ(rec.events_total() - events0, 64u);
  EXPECT_EQ(rec.drops_total() - drops0, 36u);
  rec.configure(false, 0, 0);
}

TEST(Trace, IdsAreRankSalted) {
  auto& rec = trace::recorder::global();
  rec.configure(true, 1 << 16, 3);
  const std::uint64_t a = trace::new_id();
  const std::uint64_t b = trace::new_id();
  EXPECT_NE(a, b);
  EXPECT_EQ(a >> 48, 4u);  // (rank + 1) << 48
  EXPECT_EQ(b >> 48, 4u);
  rec.configure(false, 0, 0);
}

TEST(Trace, ScopeInstallsAndRestoresContext) {
  const trace::context outer{11, 22};
  trace::set_current(outer);
  {
    trace::scope s(trace::context{33, 44});
    EXPECT_EQ(trace::current().trace_id, 33u);
    EXPECT_EQ(trace::current().span, 44u);
  }
  EXPECT_EQ(trace::current().trace_id, 11u);
  EXPECT_EQ(trace::current().span, 22u);
  trace::set_current(trace::context{});
}

TEST(Trace, DisabledEmitIsANoOp) {
  auto& rec = trace::recorder::global();
  rec.configure(false, 0, 0);
  const std::uint64_t before = rec.events_total();
  trace::emit(trace::event_kind::lco_wait, 1, 2, 0, 3);
  EXPECT_EQ(rec.events_total(), before);
}

// -------------------------------------------------------- wire extension

TEST(Trace, WireExtensionRoundTrips) {
  parcel::parcel p;
  p.destination = gas::gid::from_bits(0x1234567890ull);
  p.action = 7;
  p.source = 2;
  p.trace_id = 0xAABB;
  p.trace_span = 0xCCDD;
  p.arguments = util::to_bytes(std::uint64_t{42});

  std::vector<std::byte> wire;
  parcel::encode_into(wire, p);
  EXPECT_EQ(wire.size(), parcel::encoded_size(p));
  EXPECT_EQ(wire.size(),
            parcel::wire_header_bytes + parcel::trace_ext_bytes +
                p.arguments.size());

  const auto v = parcel::parcel_view::parse(wire);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->trace_id(), 0xAABBu);
  EXPECT_EQ(v->trace_span(), 0xCCDDu);
  EXPECT_EQ(v->destination().bits(), p.destination.bits());
  EXPECT_EQ(v->action(), p.action);
  EXPECT_EQ(util::from_bytes<std::uint64_t>(v->arguments()), 42u);

  const parcel::parcel copy = v->to_parcel();
  EXPECT_EQ(copy.trace_id, 0xAABBu);
  EXPECT_EQ(copy.trace_span, 0xCCDDu);
}

TEST(Trace, UntracedParcelIsByteIdenticalToLegacyFormat) {
  parcel::parcel p;
  p.destination = gas::gid::from_bits(99);
  p.action = 3;
  p.arguments = util::to_bytes(std::uint64_t{5});

  std::vector<std::byte> wire;
  parcel::encode_into(wire, p);
  // No extension, and the flags byte (offset 29) is zero: pre-extension
  // peers would parse this record unchanged.
  EXPECT_EQ(wire.size(), parcel::wire_header_bytes + p.arguments.size());
  EXPECT_EQ(std::to_integer<std::uint8_t>(wire[29]), 0u);

  const auto v = parcel::parcel_view::parse(wire);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->trace_id(), 0u);
  EXPECT_EQ(v->trace_span(), 0u);
}

TEST(Trace, UnknownWireFlagsAreRejected) {
  parcel::parcel p;
  p.destination = gas::gid::from_bits(99);
  p.action = 3;
  std::vector<std::byte> wire;
  parcel::encode_into(wire, p);
  wire[29] = std::byte{0x04};  // unknown flag bit (0x01 trace, 0x02 stats)
  EXPECT_FALSE(parcel::parcel_view::parse(wire).has_value());
  // A known flag with a record too short for its extension must also be
  // rejected, not read out of bounds.
  wire[29] = std::byte{0x01};
  EXPECT_FALSE(parcel::parcel_view::parse(wire).has_value());
  wire[29] = std::byte{0x02};
  EXPECT_FALSE(parcel::parcel_view::parse(wire).has_value());
}

TEST(Trace, ViewOfInMemoryParcelCarriesTraceFields) {
  parcel::parcel p;
  p.destination = gas::gid::from_bits(7);
  p.trace_id = 5;
  p.trace_span = 6;
  const auto v = parcel::parcel_view::of(p);
  EXPECT_EQ(v.trace_id(), 5u);
  EXPECT_EQ(v.trace_span(), 6u);
}

// --------------------------------------------------- snapshot/delta helper

TEST(Trace, RegistrySnapshotDelta) {
  using introspect::counter_sample;
  const std::vector<counter_sample> before = {{"a/x", 10}, {"b/y", 5}};
  const std::vector<counter_sample> after = {{"a/x", 17}, {"c/z", 3}};
  const auto d = introspect::registry::delta(before, after);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0].first, "a/x");
  EXPECT_EQ(d[0].second, 7);
  EXPECT_EQ(d[1].first, "b/y");
  EXPECT_EQ(d[1].second, -5);
  EXPECT_EQ(d[2].first, "c/z");
  EXPECT_EQ(d[2].second, 3);
}

TEST(Trace, RuntimeSnapshotIsSortedAndSampled) {
  runtime rt;  // sim backend, tracing off — snapshot works regardless
  const auto snap = rt.introspection().snapshot_all();
  ASSERT_FALSE(snap.empty());
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].path, snap[i].path);
  }
  bool found = false;
  for (const auto& s : snap) {
    if (s.path == "runtime/loc0/parcels/sent") found = true;
  }
  EXPECT_TRUE(found);
}

// ----------------------------------------------------- end-to-end (sim)

TEST(Trace, SimRuntimeWritesShardWithCausalChain) {
  const std::string dir = testing::TempDir();
  const std::string shard_path = dir + "/px_telemetry.0.bin";
  std::remove(shard_path.c_str());

  runtime_params prm;
  prm.localities = 2;
  prm.trace = 1;
  prm.stats = 0;
  prm.telemetry_dir = dir;
  {
    runtime rt(prm);
    rt.run([&] {
      for (int i = 0; i < 10; ++i) {
        auto fut = core::async<&trace_ping>(rt.locality_gid(1),
                                            static_cast<std::uint64_t>(i));
        EXPECT_EQ(fut.get(), static_cast<std::uint64_t>(i) + 1);
      }
    });
    // The counters are live while the runtime runs.
    const auto events = rt.introspection().read("runtime/loc0/trace/events");
    ASSERT_TRUE(events.has_value());
    EXPECT_GT(*events, 0u);
    const auto drops = rt.introspection().read("runtime/loc0/trace/drops");
    ASSERT_TRUE(drops.has_value());
    EXPECT_EQ(*drops, 0u);
    rt.stop();  // writes the shard
  }

  telemetry_shard s;
  ASSERT_TRUE(read_telemetry_shard(shard_path, s));
  EXPECT_EQ(s.rank, 0u);
  EXPECT_EQ(s.clock_offset_ns, 0);
  EXPECT_GE(s.count(section_kind::events), 1u);
  EXPECT_EQ(s.count(section_kind::counters), 1u);
  EXPECT_EQ(s.count(section_kind::series), 0u);  // PX_STATS off
  EXPECT_FALSE(s.events.empty());
  EXPECT_GE(s.count(trace::event_kind::parcel_send), 10u);
  EXPECT_GE(s.count(trace::event_kind::parcel_dispatch), 10u);
  EXPECT_GE(s.count(trace::event_kind::fiber_start), 1u);
  EXPECT_GE(s.count(trace::event_kind::fiber_end), 1u);
  EXPECT_GE(s.count(trace::event_kind::lco_fire), 1u);

  // Causality: every send's (trace, span) pair reappears on a dispatch.
  std::size_t matched = 0;
  for (const auto& e : s.events) {
    if (e.kind != static_cast<std::uint32_t>(trace::event_kind::parcel_send))
      continue;
    ASSERT_NE(e.trace_id, 0u);
    for (const auto& d : s.events) {
      if (d.kind == static_cast<std::uint32_t>(
                        trace::event_kind::parcel_dispatch) &&
          d.trace_id == e.trace_id && d.span_id == e.span_id) {
        ++matched;
        break;
      }
    }
  }
  EXPECT_GE(matched, 10u);

  // The counters section recorded the run's parcel movement.
  EXPECT_GT(s.delta("runtime/loc0/parcels/sent"), 0);

  trace::recorder::global().configure(false, 0, 0);
}

TEST(Trace, UntracedRuntimeWritesNoShard) {
  const std::string dir =
      testing::TempDir() + "/px_trace_off_" + std::to_string(::getpid());
  ASSERT_TRUE(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST);
  const std::string shard_path = dir + "/px_telemetry.0.bin";
  std::remove(shard_path.c_str());
  runtime_params prm;
  prm.localities = 2;
  prm.trace = 0;
  prm.stats = 0;
  prm.telemetry_dir = dir;
  runtime rt(prm);
  rt.run([&] {
    auto fut = core::async<&trace_ping>(rt.locality_gid(1), 1ull);
    EXPECT_EQ(fut.get(), 2u);
  });
  const auto events = rt.introspection().read("runtime/loc0/trace/events");
  ASSERT_TRUE(events.has_value());
  EXPECT_EQ(*events, 0u);
  rt.stop();
  EXPECT_FALSE(test::file_exists(shard_path));
}

// ---------------------------------------------- end-to-end (distributed)

// Every rank writes a shard; rank 1's shard holds the dispatch half of
// rank 0's (trace, span) send keys — the cross-process flow edge the
// Perfetto merge draws arrows from.  Tracing is enabled through the
// environment (children inherit it), exactly how a user would run it.
TEST(Distributed, TraceShardsCarryCrossRankFlows) {
  constexpr int kPings = 20;
  if (px::test::is_rank_child()) {
    runtime rt;
    rt.run([&] {
      if (rt.rank() != 0) return;
      for (int i = 0; i < kPings; ++i) {
        auto fut = core::async<&trace_ping>(rt.locality_gid(1),
                                            static_cast<std::uint64_t>(i));
        EXPECT_EQ(fut.get(), static_cast<std::uint64_t>(i) + 1);
      }
    });
    rt.stop();
    return;
  }
  const std::string dir =
      testing::TempDir() + "/px_trace_dist_" + std::to_string(::getpid());
  if (::mkdir(dir.c_str(), 0755) != 0) {
    ASSERT_EQ(errno, EEXIST) << "mkdir " << dir;
    std::remove((dir + "/px_telemetry.0.bin").c_str());
    std::remove((dir + "/px_telemetry.1.bin").c_str());
  }
  ::setenv("PX_TRACE", "1", 1);
  ::setenv("PX_TELEMETRY_DIR", dir.c_str(), 1);
  px::test::run_ranks(2, "Distributed.TraceShardsCarryCrossRankFlows");
  ::unsetenv("PX_TRACE");
  ::unsetenv("PX_TELEMETRY_DIR");

  telemetry_shard s0, s1;
  ASSERT_TRUE(read_telemetry_shard(dir + "/px_telemetry.0.bin", s0));
  ASSERT_TRUE(read_telemetry_shard(dir + "/px_telemetry.1.bin", s1));
  EXPECT_EQ(s0.rank, 0u);
  EXPECT_EQ(s1.rank, 1u);
  // Rank 0 is the clock reference; rank 1 sampled a real offset (any
  // value, but the field must have survived the trip to disk).
  EXPECT_EQ(s0.clock_offset_ns, 0);

  EXPECT_GE(s0.count(trace::event_kind::parcel_send),
            static_cast<std::size_t>(kPings));
  EXPECT_GE(s0.count(trace::event_kind::wire_tx), 1u);
  EXPECT_GE(s1.count(trace::event_kind::wire_rx), 1u);
  EXPECT_GE(s1.count(trace::event_kind::parcel_dispatch),
            static_cast<std::size_t>(kPings));

  // Cross-rank causal edges: sends on rank 0 whose (trace, span) key
  // reappears as a dispatch on rank 1.
  std::size_t cross = 0;
  for (const auto& e : s0.events) {
    if (e.kind != static_cast<std::uint32_t>(trace::event_kind::parcel_send))
      continue;
    for (const auto& d : s1.events) {
      if (d.kind == static_cast<std::uint32_t>(
                        trace::event_kind::parcel_dispatch) &&
          d.trace_id == e.trace_id && d.span_id == e.span_id) {
        ++cross;
        break;
      }
    }
  }
  EXPECT_GE(cross, static_cast<std::size_t>(kPings));
}

}  // namespace
