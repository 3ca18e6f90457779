#include "core/parcel_port.hpp"

#include <mutex>

#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/clock.hpp"

namespace px::core {

using util::now_ns;

parcel_port::parcel_port(net::transport& transport, net::endpoint_id self,
                         parcel_port_params params)
    : transport_(transport), self_(self), params_(params) {
  PX_ASSERT(params_.flush_count >= 1);
  for (std::size_t i = 0; i < transport_.endpoints(); ++i) {
    channels_.push_back(std::make_unique<out_channel>());
  }
}

std::uint32_t parcel_port::take_frame(out_channel& ch,
                                      std::vector<std::byte>& out) {
  const std::uint32_t count = ch.count;
  out = std::move(ch.buf);
  ch.buf.clear();
  ch.count = 0;
  ch.last_close_ns = now_ns();
  return count;
}

parcel_enqueue_result parcel_port::enqueue(net::endpoint_id dest,
                                           const parcel::parcel& p) {
  PX_ASSERT_MSG(dest < channels_.size(), "parcel_port: dest out of range");
  PX_ASSERT_MSG(dest != self_, "parcel_port: local parcels bypass the port");
  // Visibility order matters for quiescence: the monotonic counter first
  // (any racing snapshot pass re-loops), then pending (the parcel is
  // "somewhere" before it is buffered).
  enqueued_total_.fetch_add(1, std::memory_order_acq_rel);
  pending_.fetch_add(1, std::memory_order_acq_rel);

  parcel_enqueue_result res;
  std::vector<std::byte> to_ship;
  std::uint32_t shipped_count = 0;
  {
    out_channel& ch = *channels_[dest];
    std::lock_guard lock(ch.lock);
    if (ch.buf.empty()) {
      // Opening a frame: the clock read (~20ns) runs at most once per
      // frame, so the storm path pays it once per flush_count parcels.
      res.quiet_first = now_ns() - ch.last_close_ns > eager_quiet_ns;
      ch.buf = transport_.pool().acquire();
      parcel::frame_begin(ch.buf);
    }
    parcel::frame_append(ch.buf, p);
    ch.count += 1;
    if (ch.buf.size() >= params_.flush_bytes ||
        ch.count >= params_.flush_count) {
      shipped_count = take_frame(ch, to_ship);
    }
  }
  if (shipped_count > 0) {
    res.shipped = true;
    threshold_flushes_.fetch_add(1, std::memory_order_relaxed);
    ship(std::move(to_ship), shipped_count, dest, /*batch=*/true);
  }
  return res;
}

void parcel_port::flush_counted(net::endpoint_id dest,
                                std::atomic<std::uint64_t>& counter,
                                bool batch) {
  PX_ASSERT(dest < channels_.size());
  std::vector<std::byte> to_ship;
  std::uint32_t shipped_count = 0;
  {
    out_channel& ch = *channels_[dest];
    std::lock_guard lock(ch.lock);
    if (ch.count == 0) return;
    shipped_count = take_frame(ch, to_ship);
  }
  counter.fetch_add(1, std::memory_order_relaxed);
  ship(std::move(to_ship), shipped_count, dest, batch);
}

void parcel_port::flush(net::endpoint_id dest) {
  flush_counted(dest, demand_flushes_, /*batch=*/true);
}

void parcel_port::flush_eager(net::endpoint_id dest) {
  flush_counted(dest, eager_flushes_, /*batch=*/false);
}

void parcel_port::flush_all() {
  for (net::endpoint_id d = 0; d < channels_.size(); ++d) {
    if (d == self_) continue;
    flush(d);
  }
}

void parcel_port::ship(std::vector<std::byte> frame, std::uint32_t count,
                       net::endpoint_id dest, bool batch) {
  net::message m;
  m.source = self_;
  m.dest = dest;
  m.units = count;
  m.payload = std::move(frame);
  m.batch = batch;
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  if (trace::enabled()) {
    trace::emit_here(trace::event_kind::wire_tx, m.payload.size(),
                     static_cast<std::uint32_t>(dest));
  }
  // send() marks the units in flight before they become invisible here;
  // decrementing pending_ only afterwards keeps every parcel continuously
  // accounted (see the quiescence contract in the header).
  transport_.send(std::move(m));
  pending_.fetch_sub(count, std::memory_order_acq_rel);
}

parcel_port_stats parcel_port::stats() const {
  parcel_port_stats s;
  s.parcels_enqueued = enqueued_total_.load(std::memory_order_relaxed);
  s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  s.threshold_flushes = threshold_flushes_.load(std::memory_order_relaxed);
  s.demand_flushes = demand_flushes_.load(std::memory_order_relaxed);
  s.eager_flushes = eager_flushes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace px::core
