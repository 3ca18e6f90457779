#include "util/config.hpp"

#include <cctype>
#include <cstdlib>
#include <string>

extern char** environ;

namespace px::util {

void config::load_environment() {
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry(*env);
    if (entry.rfind("PX_", 0) != 0) continue;
    const auto eq = entry.find('=');
    if (eq == std::string::npos) continue;
    std::string key;
    for (std::size_t i = 3; i < eq; ++i) {
      const char c = entry[i];
      key.push_back(c == '_' ? '.' : static_cast<char>(std::tolower(c)));
    }
    values_[key] = entry.substr(eq + 1);
  }
}

void config::set(const std::string& key, std::string value) {
  values_[key] = std::move(value);
}

void config::set(const std::string& key, const char* value) {
  values_[key] = value;
}

void config::set(const std::string& key, std::int64_t value) {
  values_[key] = std::to_string(value);
}

void config::set(const std::string& key, double value) {
  values_[key] = std::to_string(value);
}

void config::set(const std::string& key, bool value) {
  values_[key] = value ? "true" : "false";
}

bool config::contains(const std::string& key) const {
  // Delegate to raw() so this agrees with the getters about
  // environment-derived keys (underscore-to-dot normalization).
  return raw(key).has_value();
}

std::optional<std::string> config::raw(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end() && key.find('_') != std::string::npos) {
    // Environment-derived entries are fully dotted (PX_A_B_C -> "a.b.c"),
    // so a key with an underscore segment ("rebalance.min_depth") can only
    // have arrived from the environment under its normalized spelling —
    // retry with underscores flattened to dots.  Exact-match set() calls
    // still win above.
    std::string normalized = key;
    for (char& c : normalized) {
      if (c == '_') c = '.';
    }
    it = values_.find(normalized);
  }
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string config::get_string(const std::string& key,
                               const std::string& fallback) const {
  return raw(key).value_or(fallback);
}

std::int64_t config::get_int(const std::string& key,
                             std::int64_t fallback) const {
  const auto v = raw(key);
  if (!v) return fallback;
  try {
    return std::stoll(*v);
  } catch (...) {
    return fallback;
  }
}

double config::get_double(const std::string& key, double fallback) const {
  const auto v = raw(key);
  if (!v) return fallback;
  try {
    return std::stod(*v);
  } catch (...) {
    return fallback;
  }
}

bool config::get_bool(const std::string& key, bool fallback) const {
  const auto v = raw(key);
  if (!v) return fallback;
  if (*v == "1" || *v == "true" || *v == "yes" || *v == "on") return true;
  if (*v == "0" || *v == "false" || *v == "no" || *v == "off") return false;
  return fallback;
}

std::string config::env_name_for(const std::string& key) {
  std::string name = "PX_";
  for (const char c : key) {
    name.push_back(c == '.' ? '_' : static_cast<char>(std::toupper(c)));
  }
  return name;
}

std::vector<knob_info> config::known_knobs() {
  auto knob = [](const char* key, const char* summary) {
    return knob_info{key, env_name_for(key), summary};
  };
  return {
      knob("net.backend", "transport backend: \"sim\", \"tcp\", or \"shm\""),
      knob("net.rank", "this process's locality id (tcp/shm)"),
      knob("net.ranks", "total rank count (tcp/shm, required)"),
      knob("net.listen", "data-plane bind address (tcp only)"),
      knob("net.root", "rank 0 bootstrap listen address (tcp/shm)"),
      knob("heartbeat.interval_us",
           "control-plane heartbeat cadence (tcp/shm)"),
      knob("lease.ms", "failure lease: a rank silent this long is dead"),
      knob("fault", "fault-injection plan (docs/resilience.md grammar)"),
      knob("shm.ring_bytes", "shm backend: per-direction ring bytes per pair"),
      knob("parcel.flush_bytes", "coalesced-frame byte threshold"),
      knob("parcel.flush_count", "coalesced-frame parcel-count threshold"),
      knob("parcel.eager_flush", "first-parcel eager flush on/off"),
      knob("rebalance", "adaptive rebalancer on/off"),
      knob("rebalance.threshold", "max/mean ready-depth trigger ratio"),
      knob("rebalance.min_depth", "minimum deepest-queue depth to act"),
      knob("rebalance.max_migrations", "object migrations per round"),
      knob("rebalance.interval_us", "minimum spacing between rounds"),
      knob("trace", "flight recorder on/off (docs/telemetry.md)"),
      knob("trace.ring_bytes", "per-thread trace ring size in bytes"),
      knob("stats", "stats sampler on/off (docs/telemetry.md)"),
      knob("stats.interval_us", "stats sampling period"),
      knob("telemetry.dir", "directory for px_telemetry.<rank>.bin shards"),
      // util/log resolves this one directly (not through config), but it
      // is part of the supported environment surface all the same.
      knob("log.level", "log verbosity: debug|info|warn|error|off"),
  };
}

}  // namespace px::util
