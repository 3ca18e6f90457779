// Shared-memory transport: parcels between same-host ranks with zero
// syscalls on the hot path.
//
// Topology mirrors the TCP mesh — one OS process per rank — but the wire
// is a shm_open/mmap segment per unordered rank pair holding one SPSC byte
// ring per direction.  Each ring carries the PR 2 batch frames verbatim:
// a record is [u32 len][u32 units][frame bytes], 8-byte aligned, never
// straddling the wrap (a len=0xFFFFFFFF marker pads to the ring end).
// Because a record holds a *complete* frame, the receive path skips
// parcel::frame_assembler entirely: each frame passes once through
// whole_frame_ingest (the frame_view::parse validation gate shared with
// any future RDMA backend — see transport.hpp) and goes straight to the
// handler.
//
// Ring protocol (per direction; producer and consumer in different
// processes):
//   * `tail` (producer-owned) and `head` (consumer-owned) are monotonic
//     byte offsets in separate cache lines; each side caches its remote
//     index and refreshes only when the ring looks full/empty, so a
//     steady-state send is: write payload, bump tail (release), bump the
//     peer's doorbell counter — no syscall, no lock shared with the peer.
//   * Sleep/wake is a per-rank doorbell segment holding a futex word.
//     Receivers spin for shm.spin_us, then publish a `sleeping` flag
//     (Dekker-style: seq_cst on both sides), re-scan, and futex-wait on
//     the counter.  Senders bump the counter first and only issue
//     FUTEX_WAKE when `sleeping` is set — with both sides hot the wake
//     syscall disappears.  A stale counter observed by the sleeper makes
//     the kernel return EAGAIN, so no wakeup can be lost.
//   * in_flight() counts units the peer's consumer has not yet finished
//     handling (`consumed_units`, bumped after the handler returns) plus
//     anything parked in the local ring-full overflow queue — stronger
//     than TCP's written-to-kernel bound, and what makes drain() a true
//     peer-consumption barrier.
//
// Lifetime/crash-safety: the lower rank of each pair creates the pair
// segment before the bootstrap exchange and names it after its own
// endpoint token (the string other ranks learn from the exchange); the
// higher rank attaches in connect_peers and raises an `attached` flag, at
// which point the creator unlinks the name — from then on the segment
// lives exactly as long as its mappings and a crash leaks nothing.  Peer
// death is detected by pid liveness probes plus producer/consumer closed
// flags in the ring header; a dead or poisoned link drops its outstanding
// units into parcels_dropped_total() so the machine-wide conservation
// books still balance.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/transport.hpp"
#include "util/shm_segment.hpp"
#include "util/spinlock.hpp"

namespace px::net {

struct shm_params {
  std::uint32_t rank = 0;
  std::uint32_t nranks = 2;
  // Per-direction ring capacity for each peer pair (PX_SHM_RING_BYTES).
  // A frame larger than the ring can never be shipped and is dropped with
  // a diagnostic.
  std::size_t ring_bytes = 1u << 20;
  // Receiver spin window before futex sleep (PX_SHM_SPIN_US).  The runtime
  // sets 50 when the host has a core for every busy thread
  // (util::spin_pays) and 2 otherwise, where spinning only steals the
  // sender's cycles; the default here is the oversubscribed one.
  std::int64_t spin_us = 2;
  // Budget for peers to create/attach segments while the mesh comes up.
  std::uint64_t connect_timeout_ms = 20'000;
  // Poisons the link on any record claiming a frame larger than this.
  std::size_t max_frame_bytes = 64u << 20;
};

namespace detail {
struct shm_ring;
struct shm_pair_hdr;
struct shm_doorbell;
}  // namespace detail

class shm_transport final : public distributed_transport {
 public:
  explicit shm_transport(shm_params params);
  ~shm_transport() override;

  shm_transport(const shm_transport&) = delete;
  shm_transport& operator=(const shm_transport&) = delete;

  // The endpoint token other ranks use to derive this rank's segment
  // names; rides the bootstrap exchange where tcp puts "host:port".
  std::string listen_address() const override;
  void connect_peers(const std::vector<std::string>& table) override;

  // ------------------------------------------------- transport interface
  void set_handler(endpoint_id ep, handler h) override;
  void set_idle_callback(std::function<void()> cb) override;
  void send(message m) override;
  void drain() override;
  std::uint64_t in_flight() const noexcept override;
  std::uint64_t messages_sent_total() const noexcept override {
    return sent_total_.load(std::memory_order_acquire);
  }
  util::buffer_pool& pool() noexcept override { return pool_; }
  std::size_t endpoints() const noexcept override { return params_.nranks; }
  endpoint_stats stats(endpoint_id ep) const override;
  link_counters link(endpoint_id ep) const override;
  const char* backend_name() const noexcept override { return "shm"; }
  bool whole_frame_delivery() const noexcept override { return true; }
  // Shm-specific rows: sends parked because a peer ring was full, futex
  // wakeups actually issued (0 under steady spin = the zero-syscall hot
  // path is real), plus the shared resilience rows (peers confirmed dead,
  // units lost with them).
  std::vector<extra_link_counter> extra_link_counters(
      endpoint_id ep) const override;

  std::uint64_t parcels_received_total() const noexcept override {
    return received_total_.load(std::memory_order_acquire);
  }
  std::uint64_t parcels_dropped_total() const noexcept override {
    return dropped_total_.load(std::memory_order_acquire);
  }

  const shm_params& params() const noexcept { return params_; }

 protected:
  // distributed_transport resilience seam: request an asynchronous close
  // of the link to `rank` on the progress thread (external death verdict).
  void close_link(std::size_t rank) override;

 private:
  struct outgoing {
    std::vector<std::byte> buf;
    std::uint32_t units = 0;
  };
  struct peer {
    std::uint32_t rank = 0;
    std::atomic<bool> open{false};
    util::shm_segment seg;                 // the pair segment mapping
    detail::shm_pair_hdr* hdr = nullptr;
    detail::shm_ring* out = nullptr;       // ring we produce into
    detail::shm_ring* in = nullptr;        // ring we consume from
    std::byte* out_data = nullptr;
    std::byte* in_data = nullptr;
    std::size_t cap = 0;                   // per-direction ring bytes
    util::shm_segment db_seg;              // peer's doorbell mapping
    detail::shm_doorbell* db = nullptr;    // peer's doorbell (we ring it)
    util::spinlock send_lock;
    std::deque<outgoing> pendq;            // ring-full overflow (send_lock)
    std::atomic<std::uint64_t> pend_units{0};
    std::atomic<std::uint64_t> ring_units{0};  // units written to `out`
    whole_frame_ingest ingest{};
    std::uint64_t cached_head = 0;  // producer's cached view of out->head
    bool eof_noted = false;         // producer_closed already handled
  };

  void progress_loop();
  // Consumes everything currently in `p`'s inbound ring; returns true if
  // any record was handled.
  bool pump_ring(peer& p);
  // Moves parked overflow records into the ring as space frees up.
  bool pump_pend(peer& p);
  // Writes one record into p.out if it fits right now (send_lock held).
  bool ring_write(peer& p, const std::byte* data, std::size_t len,
                  std::uint32_t units);
  void ring_doorbell(peer& p);
  // `why == nullptr` means an orderly/expected close; anything else is an
  // unexpected disconnect and marks the peer dead in the shared books.
  void close_peer(peer& p, const char* why);
  void notify_if_drained();

  shm_params params_;
  std::string token_;  // this rank's endpoint token (names our segments)

  handler handler_;
  std::function<void()> idle_cb_;
  std::vector<std::unique_ptr<peer>> peers_;  // index == peer rank
  util::buffer_pool pool_;

  util::shm_segment own_db_seg_;           // our doorbell (we sleep on it)
  detail::shm_doorbell* own_db_ = nullptr;

  std::atomic<bool> traffic_started_{false};
  std::atomic<bool> stopping_{false};
  // Ranks whose links close_link() asked the progress thread to tear down.
  std::atomic<std::uint64_t> pending_dead_{0};

  std::atomic<std::uint64_t> sent_total_{0};
  std::atomic<std::uint64_t> received_total_{0};
  std::atomic<std::uint64_t> dropped_total_{0};

  std::atomic<std::uint64_t> msgs_tx_{0};
  std::atomic<std::uint64_t> parcels_tx_{0};
  std::atomic<std::uint64_t> bytes_tx_{0};
  std::atomic<std::uint64_t> msgs_rx_{0};
  std::atomic<std::uint64_t> bytes_rx_{0};
  std::atomic<std::uint64_t> ring_full_waits_{0};
  std::atomic<std::uint64_t> wakeups_{0};

  mutable std::mutex drain_mutex_;
  std::condition_variable drained_cv_;

  std::thread progress_;
};

}  // namespace px::net
