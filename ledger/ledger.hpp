// Parcel cost ledger: pieces shared by px_ledger's launcher, its rank
// processes and its layer probes.
//
// Every timestamp is CLOCK_MONOTONIC nanoseconds (util::now_ns, which is
// steady_clock on Linux).  That clock is host-wide, so a stamp taken in one
// rank process can be compared with one taken in another — the one-way
// latency and the client-side spans rely on it.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/clock.hpp"

namespace ledger {

using px::util::now_ns;

// Command line of px_ledger.  The launcher re-executes itself with `role`
// set for each process it starts; `out` names the file rank 0 reports to.
struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool traced = false;
  std::string role;  // empty: the launcher
  std::string out;
};

enum class shape { closed_loop, one_way, grain };

// One workload: what rank 0 drives, over which backend ("" = no network).
struct workload {
  const char* name;
  const char* backend;
  shape kind;
  int clients;  // closed loop: concurrent client fibers
  bool bulk;    // one way: 4 KiB argument instead of 16 B
};

const workload* find_workload(const std::string& name);
const std::vector<workload>& all_workloads();

// Warm-up before the measured window of a run of `seconds`.
inline double warmup_s(double seconds) { return std::min(2.0, seconds / 4.0); }

// Process entry points for the roles the launcher starts (workloads.cpp,
// probes.cpp).  Each returns the process exit code.
int workload_rank_main(const options& opt);  // roles "rank" and "boot"
int netprobe_rank_main(const options& opt);  // role "netprobe"

// Key/value lines ("name value\n"): how rank processes hand results to the
// launcher (through a file) and how rank 1 answers rank 0's report request.
using kv = std::map<std::string, double>;

std::string kv_render(const kv& values);
kv kv_parse(const std::string& text);
bool kv_write_file(const std::string& path, const kv& values);
kv kv_read_file(const std::string& path);

// Key of sub-window k's value of `base`: "base.k".
inline std::string sub_key(const char* base, int k) {
  std::string key(base);
  key += '.';
  key += std::to_string(k);
  return key;
}

// values[key], or 0 when absent.
inline double at(const kv& values, const std::string& key) {
  const auto it = values.find(key);
  return it == values.end() ? 0.0 : it->second;
}

// Median of v (0 when empty).
double median(std::vector<double> v);

// user + sys CPU of this whole process, and its peak resident set.
inline double process_cpu_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}
inline double process_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

inline void busy_spin_ns(std::int64_t ns) {
  const std::int64_t until = now_ns() + ns;
  while (now_ns() < until) {
  }
}

// The benchmark's own argument hash: the client draws (a, b) from the seed,
// the server replies mix(a, b), and both sides fold the result into a
// 32-bit wrapping checksum (exact in a double, so it survives the kv files).
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t z = a ^ (b * 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Per-operation latency samples with bounded memory.  Every operation is
// counted; once kCap values are held, every other one is dropped and the
// keep stride doubles, so the kept values stay an evenly spaced subset
// whatever the operation rate.  Each kept value stands for `stride`
// operations when summaries are merged.
class samples {
 public:
  static constexpr std::size_t kCap = 1u << 16;

  void add(double v) {
    max_ = std::max(max_, v);
    if (seen_++ % stride_ != 0) return;
    values_.push_back(static_cast<float>(v));
    if (values_.size() >= kCap) {
      std::size_t keep = 0;
      for (std::size_t i = 0; i < values_.size(); i += 2) {
        values_[keep++] = values_[i];
      }
      values_.resize(keep);
      stride_ *= 2;
    }
  }

  std::uint64_t seen() const noexcept { return seen_; }

 private:
  friend struct summary;
  std::vector<float> values_;
  std::uint64_t stride_ = 1;
  std::uint64_t seen_ = 0;
  double max_ = 0.0;
};

// Weighted quantiles over one or more sample sets.
struct summary {
  std::vector<std::pair<float, std::uint64_t>> weighted;
  std::uint64_t total_weight = 0;
  std::uint64_t kept = 0;
  std::uint64_t ops = 0;  // every operation added, kept or not
  double max = 0.0;

  void merge(const samples& s) {
    for (float v : s.values_) weighted.emplace_back(v, s.stride_);
    total_weight += s.values_.size() * s.stride_;
    kept += s.values_.size();
    ops += s.seen_;
    max = std::max(max, s.max_);
  }
  void merge(const summary& o) {
    weighted.insert(weighted.end(), o.weighted.begin(), o.weighted.end());
    total_weight += o.total_weight;
    kept += o.kept;
    ops += o.ops;
    max = std::max(max, o.max);
    sorted_ = false;
  }

  // Value below which a share q of the operations fall (0 when empty).
  double quantile(double q) {
    if (weighted.empty()) return 0.0;
    if (!sorted_) {
      std::sort(weighted.begin(), weighted.end());
      sorted_ = true;
    }
    const double target = q * static_cast<double>(total_weight);
    double cum = 0.0;
    for (const auto& [v, w] : weighted) {
      cum += static_cast<double>(w);
      if (cum >= target) return v;
    }
    return weighted.back().first;
  }

 private:
  bool sorted_ = false;
};

// A running mean of a span, in nanoseconds.
struct span_sum {
  double total = 0.0;
  std::uint64_t n = 0;
  void add(double ns) {
    total += ns;
    n += 1;
  }
  void merge(const span_sum& o) {
    total += o.total;
    n += o.n;
  }
  double mean() const { return n == 0 ? 0.0 : total / static_cast<double>(n); }
};

// Time plan of one measured run, in absolute CLOCK_MONOTONIC ns:
//   [start, ws) warm-up, [ws, wu) untraced window, [wu, we) traced window.
// An untraced run has wu == we.  Operations belong to the phase in which
// they were issued.  The untraced window is cut into `subs` sub-windows of
// about a second; each end-to-end metric is the median over them, so a
// few seconds of host disturbance inside a run do not move it.
struct plan {
  std::int64_t ws = 0;
  std::int64_t wu = 0;
  std::int64_t we = 0;
  int subs = 1;

  bool untraced(std::int64_t t) const { return t >= ws && t < wu; }
  bool traced(std::int64_t t) const { return t >= wu && t < we; }
  std::int64_t sub_ns() const { return (wu - ws) / subs; }
  // Sub-window of an untraced time.
  std::size_t sub(std::int64_t t) const {
    return static_cast<std::size_t>(
        std::min<std::int64_t>(subs - 1, (t - ws) / sub_ns()));
  }
  // Mark times: every sub-window edge from ws to wu, then we.
  std::vector<std::int64_t> edges() const {
    std::vector<std::int64_t> e;
    for (int k = 0; k < subs; ++k) e.push_back(ws + k * sub_ns());
    e.push_back(wu);
    e.push_back(we);
    return e;
  }
};

// Per-sub-window latency samples of the untraced window.
using windowed = std::vector<samples>;

// Adds, per sub-window k, "sub.ops.k", "sub.p50.k", "sub.p99.k" and
// "sub.p999.k", plus "ops.u", "lat.max", "lat.samples" and the pooled
// "lat_all.p50" over the whole untraced window.  `sets` are the windowed
// sample sets to merge (one per client, worker or server).
void put_subwindows(kv& out, const std::vector<const windowed*>& sets,
                    int subs);

// The end-to-end values of a run: medians over the sub-windows of the
// rate, the latency quantiles and the CPU per operation.  `lat` holds the
// put_subwindows keys, `cpu_us[k]` the CPU of all ranks in sub-window k.
void put_end_to_end(kv& out, const kv& lat, const std::vector<double>& cpu_us,
                    const plan& p);

// Calls `at(i)` on a sleeping helper thread at each of the given absolute
// times, so CPU and counter snapshots land exactly on the window edges
// without the measured threads reading the clock for them.
class window_marks {
 public:
  window_marks() = default;
  window_marks(const window_marks&) = delete;
  window_marks& operator=(const window_marks&) = delete;
  ~window_marks() { join(); }

  void start(std::vector<std::int64_t> times, std::function<void(int)> at);
  void join();

 private:
  std::thread thread_;
};

// In-process isolation probes of each layer (probes.cpp): every
// serialize./port.enqueue/ingest./dispatch./threads./lco. cost, in ns.
kv layer_probes();

}  // namespace ledger
