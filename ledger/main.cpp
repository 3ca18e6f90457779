// px_ledger: the parcel cost ledger's benchmark program.
//
//   px_ledger --workload <name> --seed <n> [--seconds S] [--traced]
//
// The process given no --role is the launcher: it starts the workload's
// processes (two ranks on one host, or one process for `grain`), collects
// rank 0's report, checks every exit code, and prints each metric as
// "name value unit" followed by one JSON object holding all of them.
//
// An untraced run measures the end-to-end metrics; set-up is timed over
// several boots and reported as the median.  A --traced run splits the
// window into an untraced and a traced half (client-side spans around
// every request), then times each layer in isolation (probes.cpp) and
// reports the per-layer breakdown, whose `span.residual_us` is the part of
// the round trip that the isolated layers do not explain.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "util/subproc.hpp"

namespace ledger {

namespace {

constexpr int kSetups = 7;  // boots per untraced run; setup_s is their median

struct metric {
  std::string name;
  double value;
  const char* unit;
};

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Whether a local TCP socket listens on `port` (/proc/net/tcp, state 0A).
bool listening(int port) {
  std::FILE* f = std::fopen("/proc/net/tcp", "r");
  if (f == nullptr) return false;
  char line[512];
  bool found = false;
  while (!found && std::fgets(line, sizeof line, f) != nullptr) {
    unsigned local_port = 0;
    unsigned state = 0;
    if (std::sscanf(line, " %*d: %*x:%x %*x:%*x %x", &local_port, &state) ==
        2) {
      found = static_cast<int>(local_port) == port && state == 0x0A;
    }
  }
  std::fclose(f);
  return found;
}

// Polls until rank 0 listens on its bootstrap port, exits (left unreaped
// for wait_exit), or 30 s pass.
void wait_listening(int port, pid_t rank0) {
  const std::int64_t deadline = now_ns() + 30'000'000'000;
  while (!listening(port) && now_ns() < deadline) {
    siginfo_t info{};
    if (waitid(P_PID, static_cast<id_t>(rank0), &info,
               WEXITED | WNOHANG | WNOWAIT) != 0 ||
        info.si_pid != 0) {
      return;
    }
    usleep(100);
  }
}

struct launch_result {
  kv rank0;
  int failed_ranks = 0;
  std::int64_t launched_ns = 0;
};

// Starts one machine of `role` processes (two ranks over `backend`, or a
// single process when backend is empty), waits for every process, and
// returns rank 0's report.
launch_result launch(const options& opt, const std::string& role,
                     const std::string& backend) {
  static int seq = 0;
  const std::string out = "ledger." + std::to_string(getpid()) + "." +
                          std::to_string(seq++) + ".kv";
  std::remove(out.c_str());
  std::vector<std::string> argv = {
      px::util::self_exe_path(), "--workload", opt.workload,
      "--seed", std::to_string(opt.seed), "--seconds", number(opt.seconds),
      "--role", role, "--out", out};
  if (opt.traced) argv.push_back("--traced");
  const int nranks = backend.empty() ? 1 : 2;
  const int root_port = backend.empty() ? 0 : px::util::pick_free_tcp_port();
  launch_result r;
  r.launched_ns = now_ns();
  std::vector<pid_t> pids;
  for (int rank = 0; rank < nranks; ++rank) {
    pids.push_back(px::util::spawn_process(
        argv, backend.empty()
                  ? std::vector<std::pair<std::string, std::string>>{}
                  : px::util::net_rank_env(rank, nranks, root_port, backend)));
    // Root first, as launchers do: the bootstrap retries a refused dial only
    // after a fixed 50 ms, so starting rank 1 before rank 0 listens would
    // make set-up a coin flip between ~3 ms and ~53 ms.
    if (rank == 0 && nranks > 1) wait_listening(root_port, pids[0]);
  }
  const auto timeout_ms = static_cast<std::uint64_t>(
      (warmup_s(opt.seconds) + opt.seconds + 30.0) * 1000.0);
  for (const pid_t pid : pids) {
    if (px::util::wait_exit(pid, timeout_ms) != 0) r.failed_ranks += 1;
  }
  r.rank0 = kv_read_file(out);
  std::remove(out.c_str());
  return r;
}

// Operations a machine attempted and failed, including a rank that exited
// non-zero or a rank 0 that never reported.
struct tally {
  double attempted = 0.0;
  double failed = 0.0;

  void add(const launch_result& r) {
    const bool reported = r.rank0.count("issued") != 0;
    attempted += reported ? at(r.rank0, "issued") : 1.0;
    failed += reported ? at(r.rank0, "failed") : 1.0;
    failed += r.failed_ranks;
  }
};

// Isolated layer costs on the path of one operation, in us, by layer.  The
// residual is what the operation's blocking spans (issue + request, plus
// the reply of a round trip) take beyond their sum.
std::vector<metric> path_rows(const workload& w, const kv& probes) {
  const double rtt = at(probes, std::string("net.raw_rtt_us.") + w.backend);
  const double encode = at(probes, w.bulk ? "serialize.encode_4k_ns"
                                          : "serialize.encode_ns");
  const double enqueue = at(probes, "port.enqueue_ns");
  const double spawn = at(probes, "threads.spawn_to_run_ns");
  const double fire = at(probes, "lco.fire_to_resume_ns");
  switch (w.kind) {
    case shape::closed_loop:  // request and reply each cross the wire
      return {{"path.serialize_us", 2 * encode * 1e-3, "us"},
              {"path.port_us", 2 * enqueue * 1e-3, "us"},
              {"path.net_us", rtt, "us"},
              {"path.threads_us", spawn * 1e-3, "us"},
              {"path.lco_us", fire * 1e-3, "us"}};
    case shape::one_way:  // send -> handler entry crosses it once
      return {{"path.serialize_us", encode * 1e-3, "us"},
              {"path.port_us", enqueue * 1e-3, "us"},
              {"path.net_us", rtt / 2, "us"},
              {"path.threads_us", spawn * 1e-3, "us"}};
    case shape::grain:
      return {{"path.threads_us", spawn * 1e-3, "us"}};
  }
  return {};
}

int launcher_main(const options& opt, const workload& w) {
  tally ops;
  std::vector<double> setup;
  const auto boot_time = [&](const launch_result& r) {
    if (r.rank0.count("ready_ns") != 0) {
      setup.push_back((at(r.rank0, "ready_ns") -
                       static_cast<double>(r.launched_ns)) *
                      1e-9);
    }
  };
  if (!opt.traced) {
    for (int i = 1; i < kSetups; ++i) {
      const launch_result boot = launch(opt, "boot", w.backend);
      ops.add(boot);
      boot_time(boot);
    }
  }
  const launch_result run = launch(opt, "rank", w.backend);
  ops.add(run);
  boot_time(run);
  const kv& r = run.rank0;

  std::vector<metric> m = {
      {"ops_per_s", at(r, "ops_per_s"), "ops/s"},
      {"lat_p50_us", at(r, "lat.p50"), "us"},
      {"lat_p99_us", at(r, "lat.p99"), "us"},
      {"lat_p999_us", at(r, "lat.p999"), "us"},
      {"lat_max_us", at(r, "lat.max"), "us"},
      {"lat_samples", at(r, "lat.samples"), "count"},
      {"cpu_us_per_op", at(r, "cpu_us_per_op"), "us"},
      {"peak_rss_mb", at(r, "rss_mb"), "MiB"},
      {"setup_s", median(setup), "s"},
  };

  if (opt.traced) {
    kv probes = layer_probes();
    for (const char* backend : {"shm", "tcp"}) {
      const launch_result net = launch(opt, "netprobe", backend);
      ops.failed += net.failed_ranks + (net.rank0.empty() ? 1 : 0);
      probes[std::string("net.raw_rtt_us.") + backend] =
          at(net.rank0, "raw_rtt_us");
      probes[std::string("net.send_call_ns.") + backend] =
          at(net.rank0, "send_call_ns");
    }
    const double ops_t = at(r, "ops.t");
    const double frames = at(r, "frames.t");
    const double enqueued = at(r, "enqueued.t");
    for (const char* name :
         {"serialize.encode_ns", "serialize.encode_4k_ns", "port.enqueue_ns",
          "ingest.parse_ns", "ingest.whole_frame_ns", "ingest.assembler_ns",
          "dispatch.fast_ns", "threads.spawn_to_run_ns",
          "threads.spawn_batch_ns", "threads.swap_ns",
          "lco.fire_to_resume_ns", "net.send_call_ns.shm",
          "net.send_call_ns.tcp"}) {
      m.push_back({name, at(probes, name), "ns"});
    }
    m.push_back({"net.raw_rtt_us.shm", at(probes, "net.raw_rtt_us.shm"), "us"});
    m.push_back({"net.raw_rtt_us.tcp", at(probes, "net.raw_rtt_us.tcp"), "us"});
    m.push_back({"port.parcels_per_frame", ratio(enqueued, frames),
                 "parcels/frame"});
    m.push_back({"port.eager_share", ratio(at(r, "eager.t"), frames),
                 "fraction"});
    m.push_back({"net.bytes_per_parcel", ratio(at(r, "bytes_tx.t"), enqueued),
                 "B/parcel"});
    m.push_back({"threads.steals_per_op", ratio(at(r, "steals.t"), ops_t),
                 "1/op"});
    m.push_back({"threads.suspends_per_op",
                 ratio(at(r, "suspends.t"), ops_t), "1/op"});

    const double issue = at(r, "span.issue_ns") * 1e-3;
    const double request = at(r, "span.request_ns") * 1e-3;
    const double handler = at(r, "span.handler_ns") * 1e-3;
    const double reply = at(r, "span.reply_ns") * 1e-3;
    m.push_back({"span.issue_us", issue, "us"});
    m.push_back({"span.request_us", request, "us"});
    m.push_back({"span.handler_us", handler, "us"});
    m.push_back({"span.reply_us", reply, "us"});
    double explained = 0.0;
    for (const metric& row : path_rows(w, probes)) {
      explained += row.value;
      m.push_back(row);
    }
    // The issuing call is on the blocking path too: the request is encoded,
    // enqueued and (eagerly) sent inside it.  Only the handler's own work
    // is left out.
    const double blocking =
        issue + request + (w.kind == shape::closed_loop ? reply : 0.0);
    m.push_back({"span.residual_us", blocking - explained, "us"});
    m.push_back({"trace.overhead_us",
                 at(r, "lat_t.p50") - at(r, "lat_all.p50"), "us"});
    m.push_back({"trace.clock_violations", at(r, "clock_violations"),
                 "count"});
  }
  m.push_back({"failed_ratio", ratio(ops.failed, ops.attempted), "fraction"});

  const bool correct = ops.failed == 0.0;
  std::string json = "{\"workload\": \"" + opt.workload +
                     "\", \"seed\": " + std::to_string(opt.seed) +
                     ", \"seconds\": " + number(opt.seconds) +
                     ", \"traced\": " + (opt.traced ? "true" : "false") +
                     ", \"correct\": " + (correct ? "true" : "false") +
                     ", \"attempted\": " + number(ops.attempted) +
                     ", \"failed\": " + number(ops.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::printf("%-26s %s %s\n", m[i].name.c_str(), number(m[i].value).c_str(),
                m[i].unit);
    json += (i == 0 ? "\"" : ", \"") + m[i].name + "\": {\"value\": " +
            number(m[i].value) + ", \"unit\": \"" + m[i].unit + "\"}";
  }
  std::printf("%s}}\n", json.c_str());
  return correct ? 0 : 1;
}

bool parse(int argc, char** argv, options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--traced") {
      opt.traced = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--role" && has_value) {
      opt.role = argv[++i];
    } else if (a == "--out" && has_value) {
      opt.out = argv[++i];
    } else {
      return false;
    }
  }
  return find_workload(opt.workload) != nullptr && opt.seconds > 0.0 &&
         opt.seconds <= 120.0;
}

}  // namespace

}  // namespace ledger

int main(int argc, char** argv) {
  ledger::options opt;
  if (!ledger::parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: px_ledger --workload <name> --seed <n> "
                 "[--seconds S] [--traced]\nworkloads:");
    for (const auto& w : ledger::all_workloads()) {
      std::fprintf(stderr, " %s", w.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (opt.role.empty()) {
    return ledger::launcher_main(opt, *ledger::find_workload(opt.workload));
  }
  if (opt.role == "netprobe") return ledger::netprobe_rank_main(opt);
  return ledger::workload_rank_main(opt);
}
