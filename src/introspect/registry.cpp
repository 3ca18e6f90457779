#include "introspect/registry.hpp"

#include <algorithm>
#include <map>
#include <mutex>

#include "util/assert.hpp"

namespace px::introspect {

registry::registry(gas::agas& agas, gas::name_service& names)
    : agas_(agas), names_(names) {}

gas::gid registry::register_entry(gas::locality_id home, std::string path,
                                  sample_fn fn, hist_fn hfn) {
  PX_ASSERT_MSG(gas::name_service::valid_path(path),
                "introspect: malformed counter path");
  const gas::gid id = agas_.allocate(gas::gid_kind::hardware, home);
  agas_.bind(id, home);
  const bool named = names_.register_name(path, id);
  PX_ASSERT_MSG(named, "introspect: counter path already registered");
  std::lock_guard lock(lock_);
  counters_.emplace(id, entry{std::move(path), std::move(fn), std::move(hfn)});
  return id;
}

gas::gid registry::add(gas::locality_id home, std::string path,
                       sample_fn fn) {
  // Only the remote path (register_entry via add_remote) may omit the
  // sampler; a null fn here is a caller bug that would otherwise surface
  // as a counter that silently never reads.
  PX_ASSERT(fn != nullptr);
  return register_entry(home, std::move(path), std::move(fn));
}

gas::gid registry::add_remote(gas::locality_id home, std::string path) {
  return register_entry(home, std::move(path), nullptr);
}

gas::gid registry::add_hist(gas::locality_id home, std::string path,
                            hist_fn fn) {
  PX_ASSERT(fn != nullptr);
  return register_entry(home, std::move(path), nullptr, std::move(fn));
}

std::optional<std::uint64_t> registry::read(gas::gid id) const {
  // The sample runs under the lock: entries are never removed, but the
  // callbacks are cheap by contract, so holding the spinlock across the
  // call is simpler than a copy of the std::function per read.
  std::lock_guard lock(lock_);
  const auto it = counters_.find(id);
  if (it == counters_.end()) return std::nullopt;
  if (it->second.hist != nullptr) return it->second.hist().count();
  if (it->second.sample == nullptr) return std::nullopt;  // remote counter
  return it->second.sample();
}

std::optional<std::uint64_t> registry::read(std::string_view path) const {
  const auto id = find(path);
  if (!id.has_value()) return std::nullopt;
  return read(*id);
}

std::optional<util::log_histogram> registry::read_hist(gas::gid id) const {
  std::lock_guard lock(lock_);
  const auto it = counters_.find(id);
  if (it == counters_.end() || it->second.hist == nullptr) return std::nullopt;
  return it->second.hist();
}

std::optional<util::log_histogram> registry::read_hist(
    std::string_view path) const {
  const auto id = find(path);
  if (!id.has_value()) return std::nullopt;
  return read_hist(*id);
}

std::optional<std::uint64_t> registry::read_quantile(gas::gid id,
                                                     double q) const {
  const auto h = read_hist(id);
  if (!h.has_value()) return std::nullopt;
  return static_cast<std::uint64_t>(h->quantile(q));
}

std::optional<std::uint64_t> registry::read_quantile(std::string_view path,
                                                     double q) const {
  const auto id = find(path);
  if (!id.has_value()) return std::nullopt;
  return read_quantile(*id, q);
}

std::optional<gas::gid> registry::find(std::string_view path) const {
  const auto id = names_.lookup(path);
  if (!id.has_value()) return std::nullopt;
  std::lock_guard lock(lock_);
  if (counters_.find(*id) == counters_.end()) return std::nullopt;
  return id;
}

std::vector<counter_info> registry::list(std::string_view prefix) const {
  std::vector<counter_info> out;
  auto named = names_.list(prefix);
  std::lock_guard lock(lock_);
  for (auto& [path, id] : named) {
    if (counters_.find(id) == counters_.end()) continue;
    out.push_back(counter_info{std::move(path), id});
  }
  return out;
}

std::vector<counter_sample> registry::snapshot_all() const {
  std::vector<counter_sample> out;
  {
    std::lock_guard lock(lock_);
    out.reserve(counters_.size());
    for (const auto& [id, e] : counters_) {
      if (e.hist != nullptr) {
        // Histogram counters read as their population so rate queries and
        // delta trailers see them as ordinary monotonic scalars.
        out.push_back(counter_sample{e.path, e.hist().count()});
        continue;
      }
      if (e.sample == nullptr) continue;  // remote: sampled on its home rank
      out.push_back(counter_sample{e.path, e.sample()});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const counter_sample& a, const counter_sample& b) {
              return a.path < b.path;
            });
  return out;
}

std::vector<hist_sample> registry::snapshot_hists() const {
  std::vector<hist_sample> out;
  {
    std::lock_guard lock(lock_);
    for (const auto& [id, e] : counters_) {
      if (e.hist == nullptr) continue;  // scalar or remote
      out.push_back(hist_sample{e.path, e.hist()});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const hist_sample& a, const hist_sample& b) {
              return a.path < b.path;
            });
  return out;
}

std::vector<std::pair<std::string, std::int64_t>> registry::delta(
    const std::vector<counter_sample>& before,
    const std::vector<counter_sample>& after) {
  std::map<std::string, std::int64_t> acc;
  for (const auto& s : before) {
    acc[s.path] -= static_cast<std::int64_t>(s.value);
  }
  for (const auto& s : after) {
    acc[s.path] += static_cast<std::int64_t>(s.value);
  }
  std::vector<std::pair<std::string, std::int64_t>> out;
  out.reserve(acc.size());
  for (auto& [path, d] : acc) out.emplace_back(path, d);
  return out;
}

std::uint64_t registry::schema_digest() const {
  // Sum of per-entry FNV-1a hashes: commutative, so the unordered map's
  // iteration order (which differs across processes) cannot matter.
  std::lock_guard lock(lock_);
  std::uint64_t digest = 0;
  for (const auto& [id, e] : counters_) {
    std::uint64_t h = 14695981039346656037ull;
    for (const char c : e.path) {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((id.bits() >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
    digest += h;
  }
  return digest;
}

}  // namespace px::introspect
