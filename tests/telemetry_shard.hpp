// Test reader for px_telemetry.<rank>.bin shards (util/shard_writer.hpp,
// docs/telemetry.md): the C++ twin of tools/px_telemetry.py's parser,
// shared by the trace and stats suites.  read_telemetry_shard returns
// false on any structural problem: bad magic or version, an unknown
// section kind, a section that runs past the end of the file, or a body
// whose size does not match its kind.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "introspect/stats.hpp"
#include "trace/trace.hpp"
#include "util/shard_writer.hpp"

namespace px::test {

struct telemetry_shard {
  std::uint32_t rank = 0;
  std::int64_t clock_offset_ns = 0;
  std::vector<util::section_kind> sections;  // in file order
  std::vector<trace::event> events;          // every events section
  std::vector<std::pair<std::string, std::int64_t>> counter_deltas;
  std::uint64_t interval_us = 0, ticks = 0, dropped_points = 0;  // sampler
  std::map<std::string, std::vector<introspect::series_point>> series;

  std::size_t count(util::section_kind k) const {
    return static_cast<std::size_t>(
        std::count(sections.begin(), sections.end(), k));
  }
  std::size_t count(trace::event_kind k) const {
    return static_cast<std::size_t>(
        std::count_if(events.begin(), events.end(), [k](const auto& e) {
          return e.kind == static_cast<std::uint32_t>(k);
        }));
  }
  bool has_series(const std::string& path) const {
    return series.count(path) != 0;
  }
  std::int64_t delta(const std::string& path) const {
    for (const auto& [p, d] : counter_deltas) {
      if (p == path) return d;
    }
    return 0;
  }
};

inline bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f != nullptr) std::fclose(f);
  return f != nullptr;
}

inline bool read_telemetry_shard(const std::string& path,
                                 telemetry_shard& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::vector<std::uint8_t> buf;
  std::uint8_t tmp[4096];
  for (std::size_t n; (n = std::fread(tmp, 1, sizeof tmp, f)) > 0;) {
    buf.insert(buf.end(), tmp, tmp + n);
  }
  std::fclose(f);

  std::size_t off = 0;
  std::size_t end = buf.size();
  auto u32 = [&] {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{buf[off + i]} << (8 * i);
    off += 4;
    return v;
  };
  auto u64 = [&] {
    const std::uint64_t lo = u32();
    return lo | (std::uint64_t{u32()} << 32);
  };
  auto str = [&](std::string& s) {
    if (off + 4 > end) return false;
    const std::uint32_t len = u32();
    if (len > end - off) return false;
    s.assign(reinterpret_cast<const char*>(buf.data() + off), len);
    off += len;
    return true;
  };

  if (buf.size() < 24 || u32() != util::shard_magic ||
      u32() != util::shard_version) {
    return false;
  }
  out.rank = u32();
  u32();  // reserved
  out.clock_offset_ns = static_cast<std::int64_t>(u64());
  while (off < buf.size()) {
    if (buf.size() - off < 16) return false;
    const auto kind = static_cast<util::section_kind>(u32());
    u32();  // reserved
    const std::uint64_t len = u64();
    if (len > buf.size() - off) return false;
    end = off + len;
    out.sections.push_back(kind);
    switch (kind) {
      case util::section_kind::events:
        if (len < 8 || (len - 8) % sizeof(trace::event) != 0) return false;
        for (off += 8; off < end; off += sizeof(trace::event)) {
          trace::event e;
          std::memcpy(&e, buf.data() + off, sizeof e);
          out.events.push_back(e);
        }
        break;
      case util::section_kind::counters:
        while (off < end) {
          std::string p;
          if (!str(p) || end - off < 8) return false;
          out.counter_deltas.emplace_back(std::move(p),
                                          static_cast<std::int64_t>(u64()));
        }
        break;
      case util::section_kind::sampler:
        if (len != 24) return false;
        out.interval_us = u64();
        out.ticks = u64();
        out.dropped_points = u64();
        break;
      case util::section_kind::series: {
        std::string p;
        if (!str(p) || (end - off) % 16 != 0) return false;
        auto& pts = out.series[p];
        while (off < end) {
          const auto ts = static_cast<std::int64_t>(u64());
          pts.push_back({ts, u64()});
        }
        break;
      }
      default:
        return false;
    }
    end = buf.size();
  }
  return true;
}

}  // namespace px::test
