#include "net/fabric.hpp"

#include <chrono>
#include <cmath>
#include <mutex>

#include "util/assert.hpp"
#include "util/fence.hpp"
#include "util/log.hpp"

namespace px::net {

namespace {
// Progress-thread wakeup cadence when idle: bounds how stale the idle
// callback (coalescing-buffer flush backstop) can get, and self-heals any
// theoretically-missed notification.
constexpr auto kIdleTick = std::chrono::microseconds(200);
}  // namespace

std::uint32_t topology_hops(topology_kind k, std::size_t endpoints,
                            endpoint_id a, endpoint_id b) noexcept {
  if (a == b) return 0;
  switch (k) {
    case topology_kind::crossbar:
      return 1;
    case topology_kind::mesh2d: {
      const auto side = static_cast<std::uint32_t>(
          std::ceil(std::sqrt(static_cast<double>(endpoints))));
      const std::uint32_t ax = a % side, ay = a / side;
      const std::uint32_t bx = b % side, by = b / side;
      const std::uint32_t dx = ax > bx ? ax - bx : bx - ax;
      const std::uint32_t dy = ay > by ? ay - by : by - ay;
      return dx + dy;
    }
    case topology_kind::vortex: {
      // Data Vortex: hierarchical multi-level structure with diameter
      // O(log N); traversal descends the angle/level hierarchy.
      std::uint32_t levels = 0;
      std::size_t n = endpoints - 1;
      while (n > 0) {
        ++levels;
        n >>= 1;
      }
      return levels == 0 ? 1 : levels;
    }
  }
  return 1;
}

fabric::fabric(fabric_params params)
    : params_(params), handlers_(params.endpoints) {
  PX_ASSERT(params_.endpoints > 0);
  util::xoshiro256 seeder(params_.seed);
  for (std::size_t i = 0; i < params_.endpoints; ++i) {
    auto shard = std::make_unique<send_shard>();
    shard->rng = seeder.split(static_cast<unsigned>(i));
    shards_.push_back(std::move(shard));
    stats_.push_back(std::make_unique<atomic_endpoint_stats>());
  }
  progress_ = std::thread([this] { progress_loop(); });
}

fabric::~fabric() {
  drain();
  {
    std::lock_guard lock(progress_mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  progress_.join();
}

void fabric::set_handler(endpoint_id ep, handler h) {
  PX_ASSERT_MSG(ep < handlers_.size(), "set_handler: endpoint out of range");
  PX_ASSERT_MSG(!traffic_started_.load(std::memory_order_acquire),
                "set_handler after traffic started");
  handlers_[ep] = std::move(h);
}

void fabric::set_idle_callback(std::function<void()> cb) {
  PX_ASSERT_MSG(!traffic_started_.load(std::memory_order_acquire),
                "set_idle_callback after traffic started");
  std::lock_guard lock(progress_mutex_);
  idle_cb_ = std::move(cb);
}

std::uint64_t fabric::model_latency_ns(endpoint_id a, endpoint_id b,
                                       std::size_t bytes) const noexcept {
  std::uint64_t ns = params_.base_latency_ns;
  ns += static_cast<std::uint64_t>(
            topology_hops(params_.topology, params_.endpoints, a, b)) *
        params_.per_hop_ns;
  if (params_.bytes_per_ns > 0.0) {
    ns += static_cast<std::uint64_t>(static_cast<double>(bytes) /
                                     params_.bytes_per_ns);
  }
  return ns;
}

void fabric::send(message m) {
  // Always-on range checks: an out-of-range endpoint would index
  // handlers_/stats_/shards_ out of bounds.
  PX_ASSERT_MSG(m.dest < params_.endpoints, "fabric::send: dest out of range");
  PX_ASSERT_MSG(m.source < params_.endpoints,
                "fabric::send: source out of range");
  PX_ASSERT(m.units >= 1);
  traffic_started_.store(true, std::memory_order_release);
  const std::uint32_t units = m.units;
  sent_total_.fetch_add(units, std::memory_order_acq_rel);
  in_flight_.fetch_add(units, std::memory_order_acq_rel);

  const auto now = std::chrono::steady_clock::now();
  auto& st = *stats_[m.source];
  st.messages_sent.fetch_add(1, std::memory_order_relaxed);
  st.parcels_sent.fetch_add(units, std::memory_order_relaxed);
  st.bytes_sent.fetch_add(m.payload.size(), std::memory_order_relaxed);

  std::uint64_t delay_ns =
      model_latency_ns(m.source, m.dest, m.payload.size());
  {
    send_shard& shard = *shards_[m.dest];
    std::lock_guard lock(shard.m);
    if (params_.jitter_ns > 0) delay_ns += shard.rng.below(params_.jitter_ns);
    shard.q.push(
        timed_message{now + std::chrono::nanoseconds(delay_ns),
                      next_seq_.fetch_add(1, std::memory_order_relaxed),
                      std::move(m)});
  }
  // One histogram sample per parcel (weighted, so one locked O(1) op per
  // frame): every coalesced parcel experienced the frame's modeled
  // latency — its own bytes plus the shared frame are what the bandwidth
  // term charged.
  latency_hist_.add(static_cast<double>(delay_ns), units);
  wake_progress();
}

// Producer half of the sleep/wake handshake (see header): the shard push
// above must be visible to a progress thread that is about to sleep, or we
// must see sleeping_ set and notify.  Timed waits backstop the protocol.
void fabric::wake_progress() {
  dirty_.store(true, std::memory_order_seq_cst);
  if (sleeping_.load(std::memory_order_seq_cst)) {
    std::lock_guard lock(progress_mutex_);
    cv_.notify_one();
  }
}

void fabric::progress_loop() {
  std::unique_lock lock(progress_mutex_);
  for (;;) {
    if (stopping_) {
      // Drain whatever is still queued before exiting so drain() callers
      // and the destructor see a clean fabric.
      bool any = false;
      for (auto& shard : shards_) {
        std::lock_guard sl(shard->m);
        any = any || !shard->q.empty();
      }
      if (!any) return;
    }
    dirty_.store(false, std::memory_order_seq_cst);

    // Earliest-due message across all shards.
    int best = -1;
    std::chrono::steady_clock::time_point best_due{};
    std::uint64_t best_seq = 0;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      send_shard& shard = *shards_[i];
      std::lock_guard sl(shard.m);
      if (shard.q.empty()) continue;
      const timed_message& top = shard.q.top();
      if (best < 0 || top.due < best_due ||
          (top.due == best_due && top.seq < best_seq)) {
        best = static_cast<int>(i);
        best_due = top.due;
        best_seq = top.seq;
      }
    }

    if (best < 0) {
      if (stopping_) return;
      if (idle_cb_) {
        lock.unlock();
        idle_cb_();
        lock.lock();
        if (stopping_) continue;
      }
      sleeping_.store(true, std::memory_order_seq_cst);
      cv_.wait_for(lock, kIdleTick, [&] {
        return dirty_.load(std::memory_order_seq_cst) || stopping_;
      });
      sleeping_.store(false, std::memory_order_seq_cst);
      continue;
    }

    const auto now = std::chrono::steady_clock::now();
    if (best_due > now) {
      sleeping_.store(true, std::memory_order_seq_cst);
      if (stopping_) {
        // Shutdown drain: the predicate below would be permanently true,
        // turning this into a busy spin for the full modeled latency —
        // just sleep the delay out (spurious wakeups only cause a rescan).
        cv_.wait_until(lock, best_due);
      } else {
        cv_.wait_until(lock, best_due, [&] {
          return dirty_.load(std::memory_order_seq_cst) || stopping_;
        });
      }
      sleeping_.store(false, std::memory_order_seq_cst);
      continue;  // re-scan: an earlier message may have arrived
    }

    timed_message tm;
    {
      send_shard& shard = *shards_[best];
      std::lock_guard sl(shard.m);
      // priority_queue::top is const; safe to move because pop follows.
      tm = std::move(const_cast<timed_message&>(shard.q.top()));
      shard.q.pop();
    }
    stats_[tm.msg.dest]->messages_received.fetch_add(
        1, std::memory_order_relaxed);
    stats_[tm.msg.dest]->bytes_received.fetch_add(tm.msg.payload.size(),
                                                  std::memory_order_relaxed);
    handler& h = handlers_[tm.msg.dest];
    PX_ASSERT_MSG(h != nullptr, "message to endpoint without handler");
    const std::uint32_t units = tm.msg.units;
    lock.unlock();
    h(tm.msg);
    // Recycle the payload's capacity unless the handler stole it.
    if (tm.msg.payload.capacity() > 0) {
      pool_.release(std::move(tm.msg.payload));
    }
    const auto remaining =
        in_flight_.fetch_sub(units, std::memory_order_acq_rel);
    lock.lock();
    if (remaining == units) drained_cv_.notify_all();
  }
}

void fabric::drain() {
  std::unique_lock lock(progress_mutex_);
  drained_cv_.wait(lock, [&] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

endpoint_stats fabric::stats(endpoint_id ep) const {
  PX_ASSERT(ep < stats_.size());
  const atomic_endpoint_stats& st = *stats_[ep];
  endpoint_stats out;
  out.messages_sent = st.messages_sent.load(std::memory_order_relaxed);
  out.parcels_sent = st.parcels_sent.load(std::memory_order_relaxed);
  out.messages_received = st.messages_received.load(std::memory_order_relaxed);
  out.bytes_sent = st.bytes_sent.load(std::memory_order_relaxed);
  out.bytes_received = st.bytes_received.load(std::memory_order_relaxed);
  return out;
}

util::log_histogram fabric::latency_histogram() const {
  return latency_hist_.snapshot();
}

}  // namespace px::net
