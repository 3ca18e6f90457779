// Telemetry shard writer: the one file format both collectors export
// through (docs/telemetry.md).  A shard is a fixed header followed by
// typed, length-prefixed sections:
//
//   [u32 magic "PXTR"] [u32 version = 2] [u32 rank] [u32 reserved]
//   [i64 clock_offset_ns]
//   sections × { [u32 kind] [u32 reserved] [u64 body bytes] body }
//
// All integers are little-endian.  The writer assembles the file in
// memory (begin() opens a section, later put_* calls fill its body) and
// write() lands it with one fwrite.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace px::util {

inline constexpr std::uint32_t shard_magic = 0x52545850u;  // "PXTR"
inline constexpr std::uint32_t shard_version = 2;

enum class section_kind : std::uint32_t {
  events = 1,    // [u32 ring id] [u32 reserved] n × 48-byte trace::event
  counters = 2,  // n × { [u32 len] path [i64 delta since boot] }
  sampler = 3,   // [u64 interval_us] [u64 ticks] [u64 dropped_points]
  series = 4,    // [u32 len] path, then n × { [i64 ts_ns] [u64 value] }
};

class shard_writer {
 public:
  shard_writer(std::uint32_t rank, std::int64_t clock_offset_ns) {
    put_u32(shard_magic);
    put_u32(shard_version);
    put_u32(rank);
    put_u32(0);
    put_u64(static_cast<std::uint64_t>(clock_offset_ns));
  }

  void begin(section_kind kind) {
    close();
    put_u32(static_cast<std::uint32_t>(kind));
    put_u32(0);
    open_ = buf_.size();
    put_u64(0);  // body length, patched by close()
  }

  void put_u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void put_u64(std::uint64_t v) {
    put_u32(static_cast<std::uint32_t>(v));
    put_u32(static_cast<std::uint32_t>(v >> 32));
  }
  void put_bytes(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  void put_str(std::string_view s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s);
  }

  // Writes the shard to `path`; returns its size in bytes, 0 on failure.
  std::uint64_t write(const std::string& path) {
    close();
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return 0;
    const bool wrote = std::fwrite(buf_.data(), 1, buf_.size(), f) == buf_.size();
    return std::fclose(f) == 0 && wrote ? buf_.size() : 0;
  }

 private:
  void close() {
    if (open_ == 0) return;
    const std::uint64_t len = buf_.size() - open_ - 8;
    for (int i = 0; i < 8; ++i) buf_[open_ + i] = static_cast<char>(len >> (8 * i));
    open_ = 0;
  }

  std::string buf_;
  std::size_t open_ = 0;  // offset of the open section's length field
};

}  // namespace px::util
