#include "ledger.hpp"

#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace ledger {

std::string kv_render(const kv& values) {
  std::string out;
  char line[256];
  for (const auto& [key, value] : values) {
    std::snprintf(line, sizeof line, "%s %.17g\n", key.c_str(), value);
    out += line;
  }
  return out;
}

kv kv_parse(const std::string& text) {
  kv out;
  std::istringstream in(text);
  std::string key;
  double value = 0.0;
  while (in >> key >> value) out[key] = value;
  return out;
}

bool kv_write_file(const std::string& path, const kv& values) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = kv_render(values);
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

kv kv_read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return {};
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return kv_parse(text);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

void put_subwindows(kv& out, const std::vector<const windowed*>& sets,
                    int subs) {
  summary all;
  for (int k = 0; k < subs; ++k) {
    summary s;
    for (const windowed* w : sets) s.merge((*w)[static_cast<std::size_t>(k)]);
    out[sub_key("sub.ops", k)] = static_cast<double>(s.ops);
    out[sub_key("sub.p50", k)] = s.quantile(0.50);
    out[sub_key("sub.p99", k)] = s.quantile(0.99);
    out[sub_key("sub.p999", k)] = s.quantile(0.999);
    all.merge(s);
  }
  out["ops.u"] = static_cast<double>(all.ops);
  out["lat.max"] = all.max;
  out["lat.samples"] = static_cast<double>(all.kept);
  out["lat_all.p50"] = all.quantile(0.50);
}

void put_end_to_end(kv& out, const kv& lat, const std::vector<double>& cpu_us,
                    const plan& p) {
  const double sub_s = static_cast<double>(p.sub_ns()) * 1e-9;
  std::vector<double> rate, p50, p99, p999, cpu;
  for (int k = 0; k < p.subs; ++k) {
    const double ops = at(lat, sub_key("sub.ops", k));
    rate.push_back(ops / sub_s);
    p50.push_back(at(lat, sub_key("sub.p50", k)));
    p99.push_back(at(lat, sub_key("sub.p99", k)));
    p999.push_back(at(lat, sub_key("sub.p999", k)));
    cpu.push_back(ops > 0 ? cpu_us[static_cast<std::size_t>(k)] / ops : 0.0);
  }
  out["ops_per_s"] = median(rate);
  out["lat.p50"] = median(p50);
  out["lat.p99"] = median(p99);
  out["lat.p999"] = median(p999);
  out["cpu_us_per_op"] = median(cpu);
  for (const char* k : {"ops.u", "lat.max", "lat.samples", "lat_all.p50"}) {
    out[k] = at(lat, k);
  }
}

void window_marks::start(std::vector<std::int64_t> times,
                         std::function<void(int)> at) {
  join();
  thread_ = std::thread([times = std::move(times), at = std::move(at)] {
    for (std::size_t i = 0; i < times.size(); ++i) {
      timespec ts{};
      ts.tv_sec = static_cast<time_t>(times[i] / 1'000'000'000);
      ts.tv_nsec = static_cast<long>(times[i] % 1'000'000'000);
      while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
             EINTR) {
      }
      at(static_cast<int>(i));
    }
  });
}

void window_marks::join() {
  if (thread_.joinable()) thread_.join();
}

}  // namespace ledger
