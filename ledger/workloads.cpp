// The six workloads, as run inside the processes the launcher starts.
//
// Distributed workloads run two ranks on one host.  Rank 0 is the only load
// generator (the runtime's default single worker, one connection to rank 1);
// rank 1 only serves.  With one worker per rank plus each rank's transport
// progress thread, at most four threads are busy, which is this host's
// core count.  `grain` is one process with nproc workers: nproc - 1 run
// tasks and one runs the spawner.
//
// Every run checks its own outputs: the reply to each request, the seeded
// checksum and count of what the receiver saw, and (in the launcher) every
// rank's exit code.  A failure makes the run exit non-zero.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/action.hpp"
#include "core/runtime.hpp"
#include "lco/lco.hpp"
#include "ledger.hpp"
#include "threads/scheduler.hpp"
#include "util/rng.hpp"

namespace ledger {

namespace {

using namespace px;

// storm-shm / bulk-tcp flow control: rank 1 acks once per kAckEvery
// delivered parcels and rank 0 keeps at most kBatches batches outstanding.
constexpr std::uint32_t kAckEvery = 4096;
constexpr std::int64_t kBatches = 2;
// bulk-tcp argument: an 8 B stamp plus 511 words (with the vector's 8 B
// length) is 4 KiB + 8 B, so the port's 4096 B flush threshold ships one
// parcel per frame.
constexpr std::size_t kBulkWords = 511;
// grain: 2 us tasks, at most 64 outstanding.
constexpr std::int64_t kGrainTaskNs = 2000;
constexpr std::int64_t kGrainOutstanding = 64;

const std::vector<workload> kWorkloads = {
    {"rtt-shm", "shm", shape::closed_loop, 1, false},
    {"rtt-tcp", "tcp", shape::closed_loop, 1, false},
    {"storm-shm", "shm", shape::one_way, 1, false},
    {"window-shm", "shm", shape::closed_loop, 64, false},
    {"bulk-tcp", "tcp", shape::one_way, 1, true},
    {"grain", "", shape::grain, 1, false},
};

std::uint32_t low32(std::uint64_t x) { return static_cast<std::uint32_t>(x); }

double us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

plan make_plan(const options& opt, std::int64_t now) {
  const auto ns = [](double s) { return static_cast<std::int64_t>(s * 1e9); };
  const double untraced_s = opt.traced ? opt.seconds / 2 : opt.seconds;
  plan p;
  p.ws = now + ns(warmup_s(opt.seconds));
  p.wu = p.ws + ns(untraced_s);
  p.we = opt.traced ? p.wu + ns(opt.seconds / 2) : p.wu;
  p.subs = std::max(1, static_cast<int>(std::lround(untraced_s)));
  return p;
}

// ------------------------------------------------------ counter snapshots

// What a process's own counters say at a window edge.  Read from the
// window_marks thread: every source is an atomic load.
struct counters {
  double cpu_us = 0.0;
  double enqueued = 0.0;
  double frames = 0.0;
  double eager = 0.0;
  double bytes_tx = 0.0;
  double steals = 0.0;
  double suspends = 0.0;
};

counters snapshot(const threads::scheduler& sched, core::runtime* rt) {
  counters c;
  c.cpu_us = process_cpu_us();
  const auto s = sched.stats();
  c.steals = static_cast<double>(s.steals);
  c.suspends = static_cast<double>(s.suspends);
  if (rt != nullptr) {
    const auto self = rt->rank();
    const auto ps = rt->port(self).stats();
    c.enqueued = static_cast<double>(ps.parcels_enqueued);
    c.frames = static_cast<double>(ps.frames_sent);
    c.eager = static_cast<double>(ps.eager_flushes);
    c.bytes_tx = static_cast<double>(rt->transport().link(self).bytes_tx);
  }
  return c;
}

// CPU per untraced sub-window ("cpu_us.k") and counter deltas over the
// traced window (".t"), from marks taken at plan::edges().
void put_counters(kv& out, const std::vector<counters>& m, const plan& p) {
  for (int k = 0; k < p.subs; ++k) {
    out[sub_key("cpu_us", k)] = m[k + 1].cpu_us - m[k].cpu_us;
  }
  const counters& a = m[static_cast<std::size_t>(p.subs)];
  const counters& b = m[static_cast<std::size_t>(p.subs) + 1];
  out["enqueued.t"] = b.enqueued - a.enqueued;
  out["frames.t"] = b.frames - a.frames;
  out["eager.t"] = b.eager - a.eager;
  out["bytes_tx.t"] = b.bytes_tx - a.bytes_tx;
  out["steals.t"] = b.steals - a.steals;
  out["suspends.t"] = b.suspends - a.suspends;
  out["rss_mb"] = process_peak_rss_mb();
}

// --------------------------------------------------------- rank 1: server
//
// Rank 1 runs one worker, so its handlers (each a fiber) never run
// concurrently and its tallies need no synchronization.

core::runtime* g_rt = nullptr;

struct server_state {
  plan p;
  std::uint64_t count = 0;
  std::uint32_t checksum = 0;
  // One-way only: send -> handler entry, by the phase the parcel was sent in.
  windowed lat_u;
  samples lat_t;
  span_sum entry_t;    // send call start -> handler entry
  span_sum handler_t;  // handler entry -> exit
  std::vector<counters> marks;
  window_marks clock;
};
server_state g_server;

void tally(std::uint32_t value) {
  g_server.count += 1;
  g_server.checksum += value;
}

std::uint64_t ledger_echo(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t r = mix(a, b);
  tally(low32(r));
  return r;
}
PX_REGISTER_ACTION(ledger_echo)

// The traced twin stamps handler entry and exit into the reply.
std::tuple<std::uint64_t, std::int64_t, std::int64_t> ledger_echo_traced(
    std::uint64_t a, std::uint64_t b) {
  const std::int64_t entered = now_ns();
  const std::uint64_t r = mix(a, b);
  tally(low32(r));
  return {r, entered, now_ns()};
}
PX_REGISTER_ACTION(ledger_echo_traced)

void ledger_ack(std::int64_t stamp);
PX_REGISTER_ACTION(ledger_ack)

// Shared tail of both one-way sinks: latency, spans, and the batch ack.
void arrived(std::int64_t sent, std::int64_t entered) {
  const plan& p = g_server.p;
  if (p.untraced(sent)) {
    g_server.lat_u[p.sub(sent)].add(us(entered - sent));
  } else if (p.traced(sent)) {
    g_server.lat_t.add(us(entered - sent));
    g_server.entry_t.add(static_cast<double>(entered - sent));
    g_server.handler_t.add(static_cast<double>(now_ns() - entered));
  }
  if (g_server.count % kAckEvery == 0) {
    // The ack is the benchmark's own flow control, so it ships at once.
    // Left to coalesce it would wait until this rank's backlog drains,
    // and the sender's stalls, and with them the backlog that sets
    // latency and memory, would wander from run to run.
    core::apply<&ledger_ack>(g_rt->locality_gid(0), now_ns());
    g_rt->port(g_rt->rank()).flush(0);
  }
}

void ledger_sink(std::uint64_t value, std::int64_t sent) {
  const std::int64_t entered = now_ns();
  tally(low32(mix(value, 0)));
  arrived(sent, entered);
}
PX_REGISTER_ACTION(ledger_sink)

void ledger_sink_bulk(std::int64_t sent, std::vector<std::uint64_t> words) {
  const std::int64_t entered = now_ns();
  std::uint32_t sum = 0;
  for (const std::uint64_t w : words) sum += low32(w);
  tally(sum);
  arrived(sent, entered);
}
PX_REGISTER_ACTION(ledger_sink_bulk)

std::uint8_t ledger_plan(std::int64_t ws, std::int64_t wu, std::int64_t we,
                         int subs) {
  server_state& s = g_server;
  s.p = plan{ws, wu, we, subs};
  s.lat_u.resize(static_cast<std::size_t>(subs));
  s.marks.resize(static_cast<std::size_t>(subs) + 2);
  s.clock.start(s.p.edges(), [](int i) {
    g_server.marks[static_cast<std::size_t>(i)] =
        snapshot(g_rt->here().sched(), g_rt);
  });
  return 1;
}
PX_REGISTER_ACTION(ledger_plan)

// Rank 1's side of the results.  Parcels sent before this request may
// still be queued as fibers behind it, so wait (boundedly) for the tally
// to reach what rank 0 sent; a shortfall is reported, not hidden.
std::string ledger_report(std::uint64_t expected) {
  const std::int64_t deadline = now_ns() + 5'000'000'000;
  while (g_server.count < expected && now_ns() < deadline) {
    threads::scheduler::yield();
  }
  server_state& s = g_server;
  s.clock.join();
  kv out;
  out["count"] = static_cast<double>(s.count);
  out["checksum"] = static_cast<double>(s.checksum);
  put_counters(out, s.marks, s.p);
  put_subwindows(out, {&s.lat_u}, s.p.subs);
  summary t;
  t.merge(s.lat_t);
  out["lat_t.p50"] = t.quantile(0.5);
  out["ops.t"] = static_cast<double>(t.ops);
  out["entry_ns.t"] = s.entry_t.mean();
  out["handler_ns.t"] = s.handler_t.mean();
  return kv_render(out);
}
PX_REGISTER_ACTION(ledger_report)

// --------------------------------------------------------- rank 0: client

// Rank 0's view of the run.  Its client fibers share one worker, so they
// share this state without synchronization.
struct client_state {
  windowed lat_u;  // untraced window, issue -> completion, us
  samples lat_t;   // traced window
  std::uint64_t issued = 0;
  std::uint64_t failed = 0;
  std::uint64_t clock_violations = 0;
  std::uint32_t checksum = 0;
  span_sum issue, request, handler, reply;  // traced window, ns
};

// Batch acks (one-way): rank 0's credit semaphore and the ack-path span.
lco::counting_semaphore g_credits{kBatches};
span_sum g_ack_span;
plan g_client_plan;

void ledger_ack(std::int64_t stamp) {
  if (g_client_plan.traced(stamp)) {
    g_ack_span.add(static_cast<double>(now_ns() - stamp));
  }
  g_credits.release();
}

// Closed loop: one outstanding request at a time, issue -> get() returns.
void closed_loop(core::runtime& rt, const plan& p, util::xoshiro256 rng,
                 client_state& r) {
  const gas::gid dest = rt.locality_gid(1);
  for (;;) {
    const std::int64_t t0 = now_ns();
    if (t0 >= p.we) break;
    const std::uint64_t a = rng();
    const std::uint64_t b = rng();
    const std::uint64_t want = mix(a, b);
    r.issued += 1;
    r.checksum += low32(want);
    if (p.traced(t0)) {
      auto fut = core::async<&ledger_echo_traced>(dest, a, b);
      const std::int64_t t1 = now_ns();
      const auto& [got, entered, left] = fut.get();
      const std::int64_t t2 = now_ns();
      if (got != want) r.failed += 1;
      if (entered < t0 || left > t2 || left < entered) {
        r.clock_violations += 1;
      }
      r.issue.add(static_cast<double>(t1 - t0));
      r.request.add(static_cast<double>(entered - t1));
      r.handler.add(static_cast<double>(left - entered));
      r.reply.add(static_cast<double>(t2 - left));
      r.lat_t.add(us(t2 - t0));
    } else {
      const std::uint64_t got = core::async<&ledger_echo>(dest, a, b).get();
      const std::int64_t t2 = now_ns();
      if (got != want) r.failed += 1;
      if (p.untraced(t0)) r.lat_u[p.sub(t0)].add(us(t2 - t0));
    }
  }
}

// One way: typed applies in batches of kAckEvery, at most kBatches
// outstanding.  The argument carries the send-call start, so rank 1 can
// time send -> handler entry on the shared clock.
void one_way(core::runtime& rt, const plan& p, bool bulk,
             util::xoshiro256 rng, client_state& r) {
  const gas::gid dest = rt.locality_gid(1);
  std::vector<std::uint64_t> words(bulk ? kBulkWords : 0);
  for (bool more = true; more;) {
    g_credits.acquire();
    for (std::uint32_t i = 0; i < kAckEvery; ++i) {
      const std::int64_t t0 = now_ns();
      if (t0 >= p.we) {
        more = false;
        break;
      }
      const std::uint64_t v = rng();
      r.issued += 1;
      if (bulk) {
        std::uint32_t sum = 0;
        for (std::size_t k = 0; k < words.size(); ++k) {
          words[k] = v ^ (k * 0x9e3779b97f4a7c15ull);
          sum += low32(words[k]);
        }
        r.checksum += sum;
        core::apply<&ledger_sink_bulk>(dest, t0, words);
      } else {
        r.checksum += low32(mix(v, 0));
        core::apply<&ledger_sink>(dest, v, t0);
      }
      if (p.traced(t0)) r.issue.add(static_cast<double>(now_ns() - t0));
    }
  }
}

// Rank 0's whole run: the first request (set-up ends when it returns),
// then warm-up and the measured window(s), then the cross-check against
// rank 1's report.
void drive(core::runtime& rt, const workload& w, const options& opt,
           kv& out) {
  const gas::gid dest = rt.locality_gid(1);
  client_state c;
  c.issued = 1;
  c.checksum = low32(mix(1, 2));
  if (core::async<&ledger_echo>(dest, 1ull, 2ull).get() != mix(1, 2)) {
    c.failed += 1;
  }
  out["ready_ns"] = static_cast<double>(now_ns());
  out["issued"] = 1;
  out["failed"] = static_cast<double>(c.failed);
  if (opt.role == "boot") return;

  const plan p = make_plan(opt, now_ns());
  g_client_plan = p;
  (void)core::async<&ledger_plan>(dest, p.ws, p.wu, p.we, p.subs).get();
  std::vector<counters> marks(static_cast<std::size_t>(p.subs) + 2);
  window_marks clock;
  core::locality& here = rt.here();
  clock.start(p.edges(), [&](int i) {
    marks[static_cast<std::size_t>(i)] = snapshot(here.sched(), &rt);
  });

  c.lat_u.resize(static_cast<std::size_t>(p.subs));
  const util::xoshiro256 rng(opt.seed);
  if (w.kind == shape::closed_loop) {
    lco::and_gate done(static_cast<std::uint64_t>(w.clients));
    for (int i = 0; i < w.clients; ++i) {
      here.spawn([&, i] {
        closed_loop(rt, p, rng.split(static_cast<std::uint64_t>(i)), c);
        done.signal();
      });
    }
    done.wait();
  } else {
    one_way(rt, p, w.bulk, rng.split(0), c);
  }
  clock.join();

  const kv server =
      kv_parse(core::async<&ledger_report>(dest, c.issued).get());

  // Correctness: every reply already checked; now the receiver's count
  // and seeded checksum.  A missing parcel is one failure each.
  const double seen = at(server, "count");
  const double sent = static_cast<double>(c.issued);
  double failed = static_cast<double>(c.failed);
  if (seen != sent) {
    std::fprintf(stderr, "ledger: rank 1 saw %.0f of %.0f operations\n", seen,
                 sent);
    failed += std::abs(seen - sent);
  } else if (at(server, "checksum") != static_cast<double>(c.checksum)) {
    std::fprintf(stderr, "ledger: rank 1 checksum mismatch\n");
    failed += 1;
  }
  out["issued"] = sent;
  out["failed"] = failed;
  out["clock_violations"] = static_cast<double>(c.clock_violations);

  kv mine;
  put_counters(mine, marks, p);
  std::vector<double> cpu;
  for (int k = 0; k < p.subs; ++k) {
    const std::string key = sub_key("cpu_us", k);
    cpu.push_back(at(mine, key) + at(server, key));
  }
  for (const char* k : {"enqueued.t", "frames.t", "eager.t", "bytes_tx.t",
                        "steals.t", "suspends.t"}) {
    out[k] = at(mine, k) + at(server, k);
  }
  out["rss_mb"] = std::max(at(mine, "rss_mb"), at(server, "rss_mb"));

  if (w.kind == shape::closed_loop) {
    kv lat;
    put_subwindows(lat, {&c.lat_u}, p.subs);
    put_end_to_end(out, lat, cpu, p);
    summary t;
    t.merge(c.lat_t);
    out["ops.t"] = static_cast<double>(t.ops);
    out["lat_t.p50"] = t.quantile(0.5);
    out["span.issue_ns"] = c.issue.mean();
    out["span.request_ns"] = c.request.mean();
    out["span.handler_ns"] = c.handler.mean();
    out["span.reply_ns"] = c.reply.mean();
  } else {
    // The sender times the apply call; rank 1 times send -> entry and the
    // handler; the ack path stands in for the reply.
    put_end_to_end(out, server, cpu, p);
    out["ops.t"] = at(server, "ops.t");
    out["lat_t.p50"] = at(server, "lat_t.p50");
    out["span.issue_ns"] = c.issue.mean();
    out["span.request_ns"] = at(server, "entry_ns.t") - c.issue.mean();
    out["span.handler_ns"] = at(server, "handler_ns.t");
    out["span.reply_ns"] = g_ack_span.mean();
  }
}

// ----------------------------------------------------------------- grain

thread_local unsigned tl_worker = 0;

struct alignas(64) grain_slot {
  windowed lat_u;
  samples lat_t;
  std::uint64_t done = 0;
  std::uint32_t checksum = 0;
  span_sum request, handler, reply;
};

// One process, no parcels: a spawner fiber keeps at most 64 two-microsecond
// tasks outstanding.  An operation is a task; its latency runs from the
// spawn call to the task's first instruction.
//
// The spawner runs on its own one-worker scheduler and the tasks on another
// with the remaining cores, so tasks arrive through the task scheduler's
// inject queue, the path every parcel-spawned fiber takes.  Spawned from one
// of the task workers instead, they would go newest-first onto that
// worker's own deque, and a task's wait would be a coin flip between a few
// microseconds and hundreds, so its median would move 5-6 times as much as
// the throughput does.
int grain_main(const options& opt) {
  const unsigned workers =
      std::max(2u, std::thread::hardware_concurrency()) - 1;
  threads::scheduler sched(threads::scheduler_params{.workers = workers});
  sched.set_worker_init([](unsigned i) { tl_worker = i; });
  threads::scheduler spawner(threads::scheduler_params{.workers = 1});
  sched.start();
  spawner.start();
  std::atomic<bool> ran{false};
  sched.spawn([&] { ran.store(true, std::memory_order_release); });
  while (!ran.load(std::memory_order_acquire)) {
  }
  kv out;
  out["ready_ns"] = static_cast<double>(now_ns());
  out["issued"] = 1;
  out["failed"] = 0;
  sched.wait_quiescent();
  if (opt.role == "boot") {
    sched.stop();
    spawner.stop();
    return kv_write_file(opt.out, out) ? 0 : 1;
  }

  const plan p = make_plan(opt, now_ns());
  std::vector<counters> marks(static_cast<std::size_t>(p.subs) + 2);
  window_marks clock;
  clock.start(p.edges(), [&](int i) {
    counters c = snapshot(sched, nullptr);
    const auto s = spawner.stats();
    c.steals += static_cast<double>(s.steals);
    c.suspends += static_cast<double>(s.suspends);
    marks[static_cast<std::size_t>(i)] = c;
  });

  std::vector<grain_slot> slots(workers);
  for (auto& s : slots) s.lat_u.resize(static_cast<std::size_t>(p.subs));
  lco::counting_semaphore outstanding(kGrainOutstanding);
  std::uint64_t issued = 0;
  std::uint32_t checksum = 0;
  span_sum issue;
  spawner.spawn([&] {
    util::xoshiro256 rng(opt.seed);
    for (;;) {
      outstanding.acquire();
      const std::int64_t t0 = now_ns();
      if (t0 >= p.we) {
        outstanding.release();
        break;
      }
      const std::uint64_t v = rng();
      issued += 1;
      checksum += low32(mix(v, 0));
      sched.spawn([&, t0, v] {
        const std::int64_t entered = now_ns();
        grain_slot& s = slots[tl_worker];
        busy_spin_ns(kGrainTaskNs);
        s.checksum += low32(mix(v, 0));
        s.done += 1;
        if (p.traced(t0)) {
          const std::int64_t left = now_ns();
          s.lat_t.add(us(entered - t0));
          s.request.add(static_cast<double>(entered - t0));
          s.handler.add(static_cast<double>(left - entered));
          outstanding.release();
          s.reply.add(static_cast<double>(now_ns() - left));
          return;
        }
        if (p.untraced(t0)) s.lat_u[p.sub(t0)].add(us(entered - t0));
        outstanding.release();
      });
      if (p.traced(t0)) issue.add(static_cast<double>(now_ns() - t0));
    }
    // Every task has handed its slot back once all permits are home.
    for (std::int64_t i = 0; i < kGrainOutstanding; ++i) outstanding.acquire();
  });
  spawner.wait_quiescent();
  sched.wait_quiescent();
  clock.join();
  sched.stop();
  spawner.stop();

  std::vector<const windowed*> sets;
  summary lat_t;
  std::uint64_t done = 0;
  std::uint32_t seen_checksum = 0;
  span_sum request, handler, reply;
  for (const auto& s : slots) {
    sets.push_back(&s.lat_u);
    lat_t.merge(s.lat_t);
    done += s.done;
    seen_checksum += s.checksum;
    request.merge(s.request);
    handler.merge(s.handler);
    reply.merge(s.reply);
  }
  double failed = 0.0;
  if (done != issued) {
    std::fprintf(stderr, "ledger: %llu of %llu tasks ran\n",
                 static_cast<unsigned long long>(done),
                 static_cast<unsigned long long>(issued));
    failed += std::abs(static_cast<double>(done) - static_cast<double>(issued));
  } else if (seen_checksum != checksum) {
    std::fprintf(stderr, "ledger: task checksum mismatch\n");
    failed += 1;
  }
  kv counts;
  put_counters(counts, marks, p);
  std::vector<double> cpu;
  for (int k = 0; k < p.subs; ++k) {
    cpu.push_back(at(counts, sub_key("cpu_us", k)));
  }
  for (const char* k : {"steals.t", "suspends.t", "rss_mb"}) out[k] = counts[k];
  kv lat;
  put_subwindows(lat, sets, p.subs);
  put_end_to_end(out, lat, cpu, p);
  out["issued"] = static_cast<double>(issued) + 1;
  out["failed"] = failed;
  out["ops.t"] = static_cast<double>(lat_t.ops);
  out["lat_t.p50"] = lat_t.quantile(0.5);
  // Spans of a task: the spawn call, spawn -> start, the body, and the
  // semaphore release that hands the slot back (the task's "reply").
  out["span.issue_ns"] = issue.mean();
  out["span.request_ns"] = request.mean() - issue.mean();
  out["span.handler_ns"] = handler.mean();
  out["span.reply_ns"] = reply.mean();
  return kv_write_file(opt.out, out) ? 0 : 1;
}

}  // namespace

const std::vector<workload>& all_workloads() { return kWorkloads; }

const workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int workload_rank_main(const options& opt) {
  const workload* w = find_workload(opt.workload);
  if (w == nullptr) return 2;
  if (w->kind == shape::grain) return grain_main(opt);
  core::runtime rt;  // backend, rank and size from the launcher's PX_NET_*
  g_rt = &rt;
  kv out;
  rt.run([&] {
    if (rt.rank() == 0) drive(rt, *w, opt, out);
  });
  rt.stop();
  if (rt.rank() != 0) return 0;
  if (!kv_write_file(opt.out, out)) return 1;
  return at(out, "failed") == 0.0 ? 0 : 1;
}

}  // namespace ledger
