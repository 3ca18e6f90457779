// Per-locality parcel port: outbound coalescing onto the fabric.
//
// The paper's parcel model makes communication overhead *amortizable*; this
// is where the amortization happens.  Each locality owns one port holding
// one open batch frame per remote destination.  enqueue() encodes the
// parcel straight into that frame (buffer drawn from the fabric's pool —
// steady state allocates nothing) and the frame ships when it crosses a
// byte or count threshold, when a scheduler worker runs out of work
// (flush-on-idle hook), when the fabric progress thread goes idle
// (backstop), or when the runtime's quiescence loop forces it.
//
// Quiescence contract: a parcel is continuously visible to
// runtime::wait_quiescent as pending() here, then in_flight() in the
// fabric, then a live thread at the destination — and every transition
// bumps a monotonic counter (enqueued_total here, messages_sent_total in
// the fabric) *before* the previous stage's count drops, so the activity-
// snapshot bracketing stays race-free with coalescing enabled.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "gas/gid.hpp"
#include "net/transport.hpp"
#include "parcel/parcel.hpp"
#include "util/spinlock.hpp"

namespace px::core {

struct parcel_port_params {
  std::size_t flush_bytes = 4096;  // ship a frame at this payload size...
  std::uint32_t flush_count = 64;  // ...or at this many coalesced parcels
};

struct parcel_port_stats {
  std::uint64_t parcels_enqueued = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t threshold_flushes = 0;  // frames shipped by size/count
  std::uint64_t demand_flushes = 0;     // frames shipped by flush()/idle
  std::uint64_t eager_flushes = 0;      // first-parcel latency flushes
};

// What enqueue() observed, so the routing layer can decide on an eager
// flush without a second trip through the channel lock.
struct parcel_enqueue_result {
  bool shipped = false;      // a threshold flush already sent the frame
  bool quiet_first = false;  // p opened the frame of a *quiet* channel:
                             // nothing shipped from it for longer than the
                             // burst window, so this parcel is likely an
                             // isolated request, not the head of a storm
};

class parcel_port {
 public:
  // Burst-detection window for quiet_first: a channel that shipped a frame
  // within this many ns is mid-burst, and eager-flushing it would defeat
  // coalescing (a storm re-opens its frame right after every threshold
  // ship).  Isolated request/reply traffic has gaps of at least a fabric
  // round trip, comfortably above this.
  static constexpr std::int64_t eager_quiet_ns = 5000;

  parcel_port(net::transport& transport, net::endpoint_id self,
              parcel_port_params params);

  parcel_port(const parcel_port&) = delete;
  parcel_port& operator=(const parcel_port&) = delete;

  // Coalesces p into the open frame for `dest` (must be a remote
  // endpoint), shipping it if a threshold is crossed.  Thread-safe.
  parcel_enqueue_result enqueue(net::endpoint_id dest,
                                const parcel::parcel& p);

  // Ships the open frame for `dest` / for every destination, if any.
  void flush(net::endpoint_id dest);
  void flush_all();

  // flush(dest) accounted as a first-parcel eager flush (latency path).
  // Its frame is the only one shipped without net::message::batch, which
  // tells tcp to write it from this thread instead of its progress thread.
  void flush_eager(net::endpoint_id dest);

  // Parcels coalesced but not yet handed to the fabric.
  std::uint64_t pending() const noexcept {
    return pending_.load(std::memory_order_acquire);
  }

  // Monotonic count of enqueue() calls, bumped before the parcel is
  // buffered (quiescence activity snapshots).
  std::uint64_t enqueued_total() const noexcept {
    return enqueued_total_.load(std::memory_order_acquire);
  }

  parcel_port_stats stats() const;
  const parcel_port_params& params() const noexcept { return params_; }

 private:
  struct out_channel {
    util::spinlock lock;
    std::vector<std::byte> buf;  // empty => no open frame
    std::uint32_t count = 0;
    std::int64_t last_close_ns = 0;  // when a frame last shipped from here
  };

  // Takes the channel's open frame into `out` and closes the channel;
  // returns the parcel count.  Caller holds ch.lock.
  static std::uint32_t take_frame(out_channel& ch,
                                  std::vector<std::byte>& out);

  void ship(std::vector<std::byte> frame, std::uint32_t count,
            net::endpoint_id dest, bool batch);
  void flush_counted(net::endpoint_id dest,
                     std::atomic<std::uint64_t>& counter, bool batch);

  net::transport& transport_;
  net::endpoint_id self_;
  parcel_port_params params_;
  std::vector<std::unique_ptr<out_channel>> channels_;  // by destination

  std::atomic<std::uint64_t> enqueued_total_{0};
  std::atomic<std::uint64_t> pending_{0};
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> threshold_flushes_{0};
  std::atomic<std::uint64_t> demand_flushes_{0};
  std::atomic<std::uint64_t> eager_flushes_{0};
};

}  // namespace px::core
