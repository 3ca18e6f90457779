#include "introspect/stats.hpp"

#include <chrono>

#include "util/clock.hpp"
#include "util/shard_writer.hpp"

namespace px::introspect {

namespace detail {
std::atomic<bool> g_stats_enabled{false};
}  // namespace detail

stats_collector::stats_collector(registry& reg, stats_params params)
    : reg_(reg), params_(std::move(params)) {
  if (params_.interval_us == 0) params_.interval_us = 10'000;
  if (params_.ring_points < 2) params_.ring_points = 2;
}

stats_collector::~stats_collector() { disarm(); }

void stats_collector::arm() {
  if (!params_.enabled || running_) return;
  detail::g_stats_enabled.store(true, std::memory_order_relaxed);
  tick_now();  // t=0 point for every series, so short runs still get a rate
  stop_ = false;
  running_ = true;
  sampler_ = std::thread([this] { sampler_main(); });
}

void stats_collector::disarm() {
  if (running_) {
    {
      std::lock_guard lock(wake_mu_);
      stop_ = true;
    }
    wake_cv_.notify_all();
    sampler_.join();
    running_ = false;
    tick_now();  // closing point: the window always ends at disarm time
  }
  if (params_.enabled) {
    detail::g_stats_enabled.store(false, std::memory_order_relaxed);
  }
}

void stats_collector::sampler_main() {
  const auto period = std::chrono::microseconds(params_.interval_us);
  std::unique_lock lock(wake_mu_);
  while (!wake_cv_.wait_for(lock, period, [this] { return stop_; })) {
    lock.unlock();
    tick_now();
    lock.lock();
  }
}

void stats_collector::append(const std::string& path, std::int64_t ts,
                             std::uint64_t value) {
  series& s = series_[path];
  if (s.pts.empty()) s.pts.resize(params_.ring_points);
  if (s.count == s.pts.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);  // oldest overwritten
  } else {
    ++s.count;
  }
  s.pts[s.head] = series_point{ts, value};
  s.head = (s.head + 1) % s.pts.size();
}

void stats_collector::tick_now() {
  // Sample outside the series lock: registry callbacks take their own
  // (registry spinlock, per-histogram locks) and queries must never wait
  // on a sampler mid-walk.
  const auto scalars = reg_.snapshot_all();
  const auto hists = reg_.snapshot_hists();
  const std::int64_t ts = util::now_ns();

  std::lock_guard lock(mu_);
  for (const auto& c : scalars) append(c.path, ts, c.value);
  for (const auto& h : hists) {
    for (const auto& [suffix, q] : k_hist_quantiles) {
      append(h.path + "/" + suffix, ts,
             static_cast<std::uint64_t>(h.hist.quantile(q)));
    }
  }
  ticks_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<series_point> stats_collector::window(
    std::string_view path) const {
  std::vector<series_point> out;
  std::lock_guard lock(mu_);
  const auto it = series_.find(std::string(path));
  if (it == series_.end()) return out;
  const series& s = it->second;
  out.reserve(s.count);
  for (std::size_t i = 0; i < s.count; ++i) out.push_back(s.at(i));
  return out;
}

void stats_collector::write_sections(util::shard_writer& w) {
  if (!params_.enabled) return;
  if (running_) tick_now();
  // One lock over both: tick_now bumps ticks_ and dropped_ under mu_, so
  // the sampler section agrees with the series written after it.
  std::lock_guard lock(mu_);
  w.begin(util::section_kind::sampler);
  w.put_u64(params_.interval_us);
  w.put_u64(ticks());
  w.put_u64(dropped_points());
  for (const auto& [path, s] : series_) {
    w.begin(util::section_kind::series);
    w.put_str(path);
    for (std::size_t i = 0; i < s.count; ++i) {
      w.put_u64(static_cast<std::uint64_t>(s.at(i).ts_ns));
      w.put_u64(s.at(i).value);
    }
  }
}

}  // namespace px::introspect
