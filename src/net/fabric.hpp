// Simulated interconnect fabric.
//
// ParalleX localities and CSP baseline ranks live in one OS process; this
// fabric is the only path between them, and it imposes the physics of a real
// interconnect: per-message base latency, per-hop latency from a topology
// model, finite bandwidth, and optional jitter (which also yields reordering,
// a useful failure-injection mode for tests).
//
// Delivery runs on a dedicated progress thread so a blocked receiver never
// stalls the sender — matching the split-phase, asynchronous transport the
// ParalleX model assumes.  Handlers must be registered before traffic flows
// and must not block for long (they hand off to scheduler queues).
//
// Hot-path design: the send queue is sharded per destination endpoint, so
// concurrent senders to different endpoints never contend on one global
// mutex (per-endpoint stats are atomics, the latency histogram is internally
// locked, and jitter RNG state is per shard).  Message payloads are drawn
// from a buffer pool and recycled after the receive handler returns —
// handlers take `message&` and decode in place (or steal the payload, which
// simply costs the pool a miss).  A message may carry several coalesced
// parcels: `units` is the logical parcel count, and the quiescence-facing
// counters (messages_sent_total, in_flight) account in parcels, not frames,
// while the latency model charges the full frame's bytes to the wire.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "net/transport.hpp"
#include "util/buffer_pool.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"

namespace px::net {

enum class topology_kind {
  crossbar,  // 1 hop between any pair
  mesh2d,    // sqrt(N) x sqrt(N) mesh, Manhattan hops
  vortex,    // Data-Vortex-style low-diameter fabric: ~log2(N) hops
};

// Hop count between endpoints under a topology; exposed for tests and for
// the Gilgamesh network model, which reuses the same geometry.
std::uint32_t topology_hops(topology_kind k, std::size_t endpoints,
                            endpoint_id a, endpoint_id b) noexcept;

struct fabric_params {
  std::size_t endpoints = 2;
  std::uint64_t base_latency_ns = 0;  // fixed wire+injection cost
  std::uint64_t per_hop_ns = 0;       // router traversal cost
  double bytes_per_ns = 0.0;          // 0 => infinite bandwidth
  std::uint64_t jitter_ns = 0;        // uniform [0, jitter) added per message
  topology_kind topology = topology_kind::crossbar;
  std::uint64_t seed = 42;
};

class fabric final : public transport {
 public:
  explicit fabric(fabric_params params);
  ~fabric() override;

  fabric(const fabric&) = delete;
  fabric& operator=(const fabric&) = delete;

  // Registration is not thread-safe and must complete before the first
  // send(); both are asserted.
  void set_handler(endpoint_id ep, handler h) override;

  // Optional backstop invoked by the progress thread whenever its queues
  // run dry (at most every ~200us): the runtime uses it to flush outbound
  // coalescing buffers even if every scheduler worker is pinned busy.
  // Must be set before traffic starts; runs on the progress thread.
  void set_idle_callback(std::function<void()> cb) override;

  // Computes the delivery deadline from the latency model and enqueues.
  // Thread-safe; never blocks on the receiver.  Asserts source/dest range.
  void send(message m) override;

  // Model-predicted one-way latency for a payload of `bytes` between a and
  // b, excluding jitter.  Benches use this to report the modeled physics.
  std::uint64_t model_latency_ns(endpoint_id a, endpoint_id b,
                                 std::size_t bytes) const noexcept;

  // Parcels (units) currently queued or in a handler.
  std::uint64_t in_flight() const noexcept override {
    return in_flight_.load(std::memory_order_acquire);
  }

  // Monotonic count of parcels (message units) accepted by send(),
  // incremented before the message is visible to the progress thread.
  // Paired with scheduler::spawn_count() in the runtime's quiescence
  // protocol to detect activity racing its counter reads.
  std::uint64_t messages_sent_total() const noexcept override {
    return sent_total_.load(std::memory_order_acquire);
  }

  // Blocks until every message sent so far has been handed to its handler
  // and the handler returned.
  void drain() override;

  // Recycled payload buffers; senders acquire here so the steady state
  // allocates nothing per message.
  util::buffer_pool& pool() noexcept override { return pool_; }

  const fabric_params& params() const noexcept { return params_; }
  std::size_t endpoints() const noexcept override {
    return params_.endpoints;
  }
  endpoint_stats stats(endpoint_id ep) const override;
  const char* backend_name() const noexcept override { return "sim"; }
  // Distribution of modeled in-flight delays (ns), one sample per parcel.
  util::log_histogram latency_histogram() const;

 private:
  struct timed_message {
    std::chrono::steady_clock::time_point due;
    std::uint64_t seq;
    message msg;
  };
  struct later {
    bool operator()(const timed_message& a, const timed_message& b) const {
      return a.due != b.due ? a.due > b.due : a.seq > b.seq;
    }
  };
  // One shard per destination endpoint: senders to different endpoints
  // touch disjoint locks.  Delivery order is preserved within a shard;
  // across shards only due-time order is honored (as jitter reorders
  // anyway, no cross-endpoint ordering is promised).
  struct send_shard {
    std::mutex m;
    std::priority_queue<timed_message, std::vector<timed_message>, later> q;
    util::xoshiro256 rng{0};
  };
  struct atomic_endpoint_stats {
    std::atomic<std::uint64_t> messages_sent{0};
    std::atomic<std::uint64_t> parcels_sent{0};
    std::atomic<std::uint64_t> messages_received{0};
    std::atomic<std::uint64_t> bytes_sent{0};
    std::atomic<std::uint64_t> bytes_received{0};
  };

  void progress_loop();
  void wake_progress();

  fabric_params params_;
  std::vector<handler> handlers_;
  std::function<void()> idle_cb_;
  std::vector<std::unique_ptr<send_shard>> shards_;
  std::vector<std::unique_ptr<atomic_endpoint_stats>> stats_;

  util::log_histogram latency_hist_;  // internally locked

  util::buffer_pool pool_;

  // Progress-thread sleep/wake handshake: senders push to a shard, then
  // seq_cst-store dirty_ and check sleeping_; the progress thread seq_cst-
  // stores sleeping_ before re-evaluating dirty_ under progress_mutex_.
  // One side always observes the other (Dekker), and every wait is timed
  // as defence in depth.
  std::mutex progress_mutex_;
  std::condition_variable cv_;
  std::condition_variable drained_cv_;
  bool stopping_ = false;  // guarded by progress_mutex_
  std::atomic<bool> dirty_{false};
  std::atomic<bool> sleeping_{false};
  std::atomic<bool> traffic_started_{false};

  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<std::uint64_t> sent_total_{0};
  std::thread progress_;
};

}  // namespace px::net
