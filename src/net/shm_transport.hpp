// Shared-memory transport: the byte channel between same-host ranks, with
// zero syscalls on the hot path (the link engine is distributed_transport,
// in transport.hpp).
//
// The wire is a shm_open/mmap segment per unordered rank pair holding one
// SPSC byte ring per direction.  A record is [u32 len][u32 units][frame
// bytes], 8-byte aligned, never straddling the wrap (a len=0xFFFFFFFF
// marker pads to the ring end).  A record holds a *complete* frame, so the
// receive path skips parcel::frame_assembler: each frame passes once
// through whole_frame_ingest and goes straight to delivery.  try_write is
// all-or-nothing plus the peer's doorbell, and refuses a frame over half
// the ring (it could wedge behind the wrap marker) with a warning.
//
//   * `tail` (producer-owned) and `head` (consumer-owned) are monotonic
//     byte offsets in separate cache lines; each side caches its remote
//     index and refreshes only when the ring looks full/empty, so a
//     steady-state send is: write payload, bump tail (release), bump the
//     peer's doorbell counter — no syscall, no lock shared with the peer.
//   * Idle workers read the rings in their spin window (has_input() is
//     `tail != head` or a closed flag).  The progress thread never spins:
//     it sleeps on a per-rank doorbell segment holding a futex word.  The
//     doorbell's `sleeping` flag means "no thread of this rank polls"; the
//     last poller out, or the progress thread before it sleeps, sets it
//     and re-scans (Dekker-style: seq_cst on both sides).  Senders bump the
//     counter first and only issue FUTEX_WAKE when `sleeping` is set.  A
//     stale counter observed by the sleeper makes the kernel return
//     EAGAIN: no wakeup can be lost.
//   * A unit is in flight until the peer's handler has returned
//     (`consumed_units`, what unconsumed_units() reads), which makes
//     drain() a true peer-consumption barrier.
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

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/transport.hpp"
#include "util/shm_segment.hpp"

namespace px::net {

struct shm_params {
  std::uint32_t rank = 0;
  std::uint32_t nranks = 2;
  // Per-direction ring capacity for each peer pair (PX_SHM_RING_BYTES).
  // A frame larger than the ring can never be shipped and is dropped with
  // a diagnostic.
  std::size_t ring_bytes = 1u << 20;
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

  // The endpoint token other ranks use to derive this rank's segment
  // names; rides the bootstrap exchange where tcp puts "host:port".
  std::string listen_address() const override { return token_; }
  void connect_peers(const std::vector<std::string>& table) override;

  const char* backend_name() const noexcept override { return "shm"; }
  const shm_params& params() const noexcept { return params_; }

 protected:
  write_status try_write(std::size_t rank, outgoing& o) override;
  bool pump_in(std::size_t rank) override;
  bool has_input(std::size_t rank) const noexcept override;
  void polled(bool any) override;
  ready_links wait(bool idle) override;
  void wake() override;
  std::uint64_t unconsumed_units(std::size_t rank) const noexcept override;
  void close_channel(std::size_t rank) override;
  // Frames parked because a peer ring was full, futex wakeups of peers
  // (0 while the peer's worker polls = the zero-syscall hot path is real),
  // and frames a polling worker delivered.
  std::vector<extra_link_counter> channel_counters() const override;

 private:
  struct peer {
    util::shm_segment seg;                 // the pair segment mapping
    detail::shm_pair_hdr* hdr = nullptr;
    detail::shm_ring* out = nullptr;       // ring we produce into
    detail::shm_ring* in = nullptr;        // ring we consume from
    std::byte* out_data = nullptr;
    std::byte* in_data = nullptr;
    std::size_t cap = 0;                   // per-direction ring bytes
    util::shm_segment db_seg;              // peer's doorbell mapping
    detail::shm_doorbell* db = nullptr;    // peer's doorbell (we ring it)
    std::atomic<std::uint64_t> ring_units{0};  // units written to `out`
    whole_frame_ingest ingest{};
    std::uint64_t cached_head = 0;  // producer's cached view of out->head
  };

  // Points `p` at pair segment `h`; we produce into ring `out_dir`.
  void map_pair(peer& p, detail::shm_pair_hdr* h, int out_dir);
  void ring_doorbell(detail::shm_doorbell* db);

  shm_params params_;
  std::string token_;  // this rank's endpoint token (names our segments)
  std::vector<peer> peers_;  // index == peer rank

  util::shm_segment own_db_seg_;           // our doorbell (we sleep on it)
  detail::shm_doorbell* own_db_ = nullptr;
  // Progress thread only: the doorbell count the current pass started
  // from, and when peers' pids were last probed.
  std::uint32_t seq_ = 0;
  std::chrono::steady_clock::time_point last_probe_{};

  std::atomic<std::uint64_t> wakeups_{0};
};

}  // namespace px::net
