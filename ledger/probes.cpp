// Layer probes: each layer of a remote parcel's path timed in isolation,
// from outside, through the layer's public functions.  Every probe
// reports the median over repetitions (or over single operations) of a
// per-operation cost, so one preempted repetition does not move it.
//
// The in-process probes run in the launcher once the workload's processes
// have exited.  The net probes need two ranks, so each backend gets its own
// two-process machine (netprobe_rank_main).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <span>
#include <thread>
#include <tuple>
#include <vector>

#include "core/parcel_port.hpp"
#include "core/runtime.hpp"
#include "lco/lco.hpp"
#include "ledger.hpp"
#include "net/fabric.hpp"
#include "net/transport.hpp"
#include "parcel/action_registry.hpp"
#include "parcel/parcel.hpp"
#include "threads/context.hpp"
#include "threads/scheduler.hpp"
#include "util/serialize.hpp"

namespace ledger {

namespace {

using namespace px;

// Raw view_handler actions: no fiber, no LCO, run inline on the delivery
// thread.  Registered at static initialization so both ranks of a probe
// machine (the same binary) assign the same ids.
std::atomic<std::uint64_t> g_raw_count{0};
std::atomic<std::uint64_t> g_pongs{0};

void raw_count(void*, const parcel::parcel_view&) {
  g_raw_count.fetch_add(1, std::memory_order_relaxed);
}
void raw_pong(void*, const parcel::parcel_view&) {
  g_pongs.fetch_add(1, std::memory_order_release);
}
const parcel::action_id kRawCount =
    parcel::action_registry::global().register_action("ledger.raw_count",
                                                      &raw_count);
const parcel::action_id kRawPong =
    parcel::action_registry::global().register_action("ledger.raw_pong",
                                                      &raw_pong);

// A one-record frame for `action` at `to`, sent straight to the transport.
void send_raw(core::runtime& rt, gas::locality_id to, parcel::action_id action) {
  parcel::parcel p;
  p.destination = rt.locality_gid(to);
  p.action = action;
  p.source = rt.rank();
  net::message m;
  m.source = rt.rank();
  m.dest = to;
  m.payload = rt.transport().pool().acquire();
  parcel::frame_begin(m.payload);
  parcel::frame_append(m.payload, p);
  rt.transport().send(std::move(m));
}

// Rank 1 answers a raw ping the same way it arrived.
void raw_ping(void* ctx, const parcel::parcel_view&) {
  send_raw(static_cast<core::locality*>(ctx)->rt(), 0, kRawPong);
}
const parcel::action_id kRawPing =
    parcel::action_registry::global().register_action("ledger.raw_ping",
                                                      &raw_ping);

// Results of probed calls land here so the loops cannot be optimized away.
volatile std::size_t g_sink = 0;

// Median over `reps` repetitions of fn(), which returns ns per operation.
template <typename F>
double median_of(int reps, F&& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(fn());
  return median(std::move(v));
}

template <typename F>
double ns_per(std::size_t ops, F&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  return static_cast<double>(now_ns() - t0) / static_cast<double>(ops);
}

// The parcels the workloads send: a 16 B (a, b) argument for rtt/storm,
// an 8 B stamp plus 511 words for bulk; a locality destination and an
// LCO continuation, as async_from builds them.
parcel::parcel sample_parcel(parcel::action_id action) {
  parcel::parcel p;
  p.destination = gas::gid::make(gas::gid_kind::hardware, 1, 1);
  p.action = action;
  p.cont.target = gas::gid::make(gas::gid_kind::lco, 0, 7);
  p.cont.action = 1;
  p.source = 0;
  p.arguments = util::to_bytes(std::tuple<std::uint64_t, std::uint64_t>(1, 2));
  return p;
}

std::vector<std::byte> frame_of(const parcel::parcel& p, int records) {
  std::vector<std::byte> frame;
  parcel::frame_begin(frame);
  for (int i = 0; i < records; ++i) parcel::frame_append(frame, p);
  return frame;
}

// serialize.encode_ns / encode_4k_ns: util::to_bytes of the argument tuple
// plus parcel::frame_append, per parcel.  Small parcels fill 64-record
// frames; 4 KiB ones ship one per frame, as the port does.
double encode_ns(bool bulk) {
  parcel::parcel p = sample_parcel(kRawCount);
  std::vector<std::byte> frame;
  std::vector<std::uint64_t> words(511, 0x5a5a5a5a5a5a5a5aull);
  const std::size_t n = bulk ? 4000 : 40000;
  const std::size_t per_frame = bulk ? 1 : 64;
  return median_of(9, [&] {
    return ns_per(n, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        if (i % per_frame == 0) parcel::frame_begin(frame);
        if (bulk) {
          p.arguments = util::to_bytes(
              std::tuple<std::int64_t, std::vector<std::uint64_t>>(
                  static_cast<std::int64_t>(i), words));
        } else {
          p.arguments = util::to_bytes(
              std::tuple<std::uint64_t, std::uint64_t>(i, i + 1));
        }
        parcel::frame_append(frame, p);
      }
    });
  });
}

// port.enqueue_ns: parcel_port::enqueue into an open channel over a fabric
// whose handler discards; threshold flushes ship as in a storm.
double enqueue_ns() {
  net::fabric fab(net::fabric_params{.endpoints = 2});
  fab.set_handler(0, [](net::message&) {});
  fab.set_handler(1, [](net::message&) {});
  core::parcel_port port(fab, 0, core::parcel_port_params{});
  const parcel::parcel p = sample_parcel(kRawCount);
  constexpr std::size_t n = 40000;
  return median_of(9, [&] {
    const double ns = ns_per(n, [&] {
      for (std::size_t i = 0; i < n; ++i) port.enqueue(1, p);
    });
    port.flush_all();
    fab.drain();
    return ns;
  });
}

// ingest.parse_ns: frame_view::parse plus a walk over a 64-record frame,
// per parcel.  ingest.whole_frame_ns: whole_frame_ingest::accept on the
// same frame, per parcel.
double parse_ns(const std::vector<std::byte>& frame) {
  constexpr std::size_t reps = 4000;
  return median_of(9, [&] {
    return ns_per(reps * 64, [&] {
      std::size_t bytes = 0;
      for (std::size_t r = 0; r < reps; ++r) {
        const auto view = parcel::frame_view::parse(frame);
        for (auto it = view->begin(); it != view->end(); ++it) {
          bytes += (*it).arguments().size();
        }
      }
      g_sink = bytes;
    });
  });
}

double whole_frame_ns(const std::vector<std::byte>& frame) {
  constexpr std::size_t reps = 4000;
  net::whole_frame_ingest ingest;
  return median_of(9, [&] {
    return ns_per(reps * 64, [&] {
      std::size_t records = 0;
      for (std::size_t r = 0; r < reps; ++r) {
        records += ingest.accept(frame).value_or(0);
      }
      g_sink = records;
    });
  });
}

// ingest.assembler_ns: frame_assembler fed a stream of one-parcel 4 KiB
// frames in 1448 B pieces (one TCP segment of payload each), per frame.
double assembler_ns() {
  parcel::parcel p = sample_parcel(kRawCount);
  p.arguments = util::to_bytes(
      std::tuple<std::int64_t, std::vector<std::uint64_t>>(
          1, std::vector<std::uint64_t>(511, 7)));
  const std::vector<std::byte> one = frame_of(p, 1);
  constexpr std::size_t frames = 64;
  std::vector<std::byte> stream;
  for (std::size_t i = 0; i < frames; ++i) {
    stream.insert(stream.end(), one.begin(), one.end());
  }
  const std::span<const std::byte> bytes(stream);
  return median_of(9, [&] {
    return ns_per(frames * 50, [&] {
      std::size_t cut = 0;
      for (int r = 0; r < 50; ++r) {
        parcel::frame_assembler as;
        for (std::size_t off = 0; off < bytes.size(); off += 1448) {
          as.feed(bytes.subspan(off, std::min<std::size_t>(1448, bytes.size() - off)));
          while (auto f = as.next_frame()) cut += f->size();
        }
      }
      g_sink = cut;
    });
  });
}

// dispatch.fast_ns: action_registry::dispatch on a raw view_handler.
double dispatch_ns(const std::vector<std::byte>& frame) {
  const auto view = parcel::frame_view::parse(frame);
  std::vector<parcel::parcel_view> views;
  for (auto it = view->begin(); it != view->end(); ++it) views.push_back(*it);
  const auto& registry = parcel::action_registry::global();
  constexpr std::size_t reps = 4000;
  return median_of(9, [&] {
    return ns_per(reps * views.size(), [&] {
      for (std::size_t r = 0; r < reps; ++r) {
        for (const auto& v : views) registry.dispatch(nullptr, v);
      }
    });
  });
}

// threads.spawn_to_run_ns: scheduler::spawn from a plain OS thread to the
// body's first instruction, on an idle one-worker scheduler — the worker
// has gone to sleep, as rank 1's has between two round trips.
double spawn_to_run_ns() {
  threads::scheduler sched(threads::scheduler_params{.workers = 1});
  sched.start();
  std::atomic<std::int64_t> entered{0};
  std::vector<double> v;
  for (int i = 0; i < 2000; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    entered.store(0, std::memory_order_relaxed);
    const std::int64_t t0 = now_ns();
    sched.spawn([&] { entered.store(now_ns(), std::memory_order_release); });
    std::int64_t at = 0;
    while ((at = entered.load(std::memory_order_acquire)) == 0) {
    }
    v.push_back(static_cast<double>(at - t0));
  }
  sched.wait_quiescent();
  sched.stop();
  return median(std::move(v));
}

// threads.spawn_batch_ns: 10 000 spawns run to wait_quiescent, per fiber.
double spawn_batch_ns() {
  threads::scheduler sched(threads::scheduler_params{.workers = 1});
  sched.start();
  constexpr std::size_t n = 10000;
  const double ns = median_of(9, [&] {
    return ns_per(n, [&] {
      for (std::size_t i = 0; i < n; ++i) sched.spawn([] {});
      sched.wait_quiescent();
    });
  });
  sched.stop();
  return ns;
}

// threads.swap_ns: one threads::context::swap pair (there and back).
struct swap_pair {
  threads::context main_ctx;
  threads::context fiber_ctx;
};
swap_pair* g_swap = nullptr;

void swap_entry(void*) {
  for (;;) threads::context::swap(g_swap->fiber_ctx, g_swap->main_ctx, nullptr);
}

double swap_ns() {
  std::vector<char> stack(64 * 1024);
  swap_pair pair;
  g_swap = &pair;
  pair.fiber_ctx =
      threads::context::make(stack.data() + stack.size(), &swap_entry);
  constexpr std::size_t n = 200000;
  return median_of(9, [&] {
    return ns_per(n, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        threads::context::swap(pair.main_ctx, pair.fiber_ctx, nullptr);
      }
    });
  });
}

// lco.fire_to_resume_ns: promise::set_value -> future::get returns in the
// fiber parked on it.  The value is set from a plain OS thread onto an idle
// one-worker scheduler, because that is how a round trip's reply lands: the
// transport's progress thread fires the reply sink while rank 0's only
// worker sleeps.
double fire_to_resume_ns() {
  threads::scheduler sched(threads::scheduler_params{.workers = 1});
  sched.start();
  std::vector<double> v;
  for (int i = 0; i < 2000; ++i) {
    lco::promise<std::int64_t> fire;
    std::atomic<std::int64_t> resumed{0};
    sched.spawn([&resumed, ready = fire.get_future()] {
      const std::int64_t fired = ready.get();
      resumed.store(std::max<std::int64_t>(1, now_ns() - fired),
                    std::memory_order_release);
    });
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    fire.set_value(now_ns());
    std::int64_t ns = 0;
    while ((ns = resumed.load(std::memory_order_acquire)) == 0) {
    }
    v.push_back(static_cast<double>(ns));
  }
  sched.wait_quiescent();
  sched.stop();
  return median(std::move(v));
}

}  // namespace

kv layer_probes() {
  const std::vector<std::byte> frame64 =
      frame_of(sample_parcel(kRawCount), 64);
  kv out;
  out["serialize.encode_ns"] = encode_ns(false);
  out["serialize.encode_4k_ns"] = encode_ns(true);
  out["port.enqueue_ns"] = enqueue_ns();
  out["ingest.parse_ns"] = parse_ns(frame64);
  out["ingest.whole_frame_ns"] = whole_frame_ns(frame64);
  out["ingest.assembler_ns"] = assembler_ns();
  out["dispatch.fast_ns"] = dispatch_ns(frame64);
  out["threads.spawn_to_run_ns"] = spawn_to_run_ns();
  out["threads.spawn_batch_ns"] = spawn_batch_ns();
  out["threads.swap_ns"] = swap_ns();
  out["lco.fire_to_resume_ns"] = fire_to_resume_ns();
  return out;
}

// Rank 0 of a two-rank probe machine times the raw wire (a one-record frame
// to a raw handler on rank 1, which answers the same way: no port, fiber or
// LCO on the path) and the cost of one transport::send call carrying a
// 64-record frame.
int netprobe_rank_main(const options& opt) {
  core::runtime rt;
  kv out;
  rt.run([&] {
    if (rt.rank() != 0) return;
    net::transport& t = rt.transport();
    const auto round_trip = [&] {
      const std::uint64_t before = g_pongs.load(std::memory_order_acquire);
      const std::int64_t t0 = now_ns();
      send_raw(rt, 1, kRawPing);
      while (g_pongs.load(std::memory_order_acquire) == before) {
      }
      return static_cast<double>(now_ns() - t0);
    };
    for (int i = 0; i < 2000; ++i) round_trip();
    std::vector<double> rtt;
    for (const std::int64_t until = now_ns() + 400'000'000; now_ns() < until;) {
      rtt.push_back(round_trip());
    }
    out["raw_rtt_us"] = median(std::move(rtt)) * 1e-3;

    parcel::parcel p = sample_parcel(kRawCount);
    p.destination = rt.locality_gid(1);
    const std::vector<std::byte> frame = frame_of(p, 64);
    std::vector<double> calls;
    for (const std::int64_t until = now_ns() + 300'000'000; now_ns() < until;) {
      net::message m;
      m.source = 0;
      m.dest = 1;
      m.units = 64;
      m.payload = t.pool().acquire();
      m.payload.assign(frame.begin(), frame.end());
      const std::int64_t t0 = now_ns();
      t.send(std::move(m));
      calls.push_back(static_cast<double>(now_ns() - t0));
      while (t.in_flight() > 16 * 64) {
      }
    }
    out["send_call_ns"] = median(std::move(calls));
    out["frames_sent"] = static_cast<double>(calls.size());
  });
  rt.stop();
  if (rt.rank() != 0) return 0;
  return kv_write_file(opt.out, out) ? 0 : 1;
}

}  // namespace ledger
