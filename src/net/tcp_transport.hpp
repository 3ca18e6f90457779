// TCP transport: parcels over real sockets between OS processes.
//
// Each endpoint (locality) is one process ("rank"); the full mesh of
// pairwise TCP connections is the wire.  The PR 2 batch-frame format is
// already self-delimiting and self-validating, so the data plane streams
// raw frames with no extra envelope: the connection identifies the peer
// (fixed at the hello handshake), `frame_assembler` cuts complete frames
// out of the byte stream across arbitrary partial reads, and frame count
// == message units.  A nonblocking poll(2) progress thread does every
// read and every close: it reassembles inbound frames and feeds them to
// the registered handler (the runtime's deliver_from_fabric path, same as
// the simulated fabric).  Writes take one of two paths, never both at
// once for one peer.  An isolated frame (message::batch unset) to a peer
// whose send queue is empty is written by the sending thread itself,
// under the peer's send_lock, as shm writes its ring.  Everything else,
// and any remainder the kernel did not take, waits in the send queue for
// the progress thread, which writes only the queue's front.  Buffers
// recycle through the shared util::buffer_pool either way.
//
// In-flight semantics (quiescence): in_flight() counts units accepted by
// send() whose bytes have not yet fully reached the kernel.  Once written,
// a parcel is invisible to *this* process — the distributed quiescence
// protocol (runtime::wait_quiescent over net::bootstrap) balances global
// sent/delivered totals to prove nothing is left on any wire.
//
// Setup is two-phase because endpoints learn each other's addresses from
// the bootstrap exchange: construct (binds the listener, possibly on an
// ephemeral port), hand listen_address() to the bootstrap, then
// connect_peers() with the full table.  Ranks below ours are dialed, ranks
// above us dial in; each data connection opens with an 8-byte hello naming
// the peer's rank.  No traffic may flow before connect_peers returns.
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
#include "parcel/parcel.hpp"
#include "util/spinlock.hpp"

namespace px::net {

struct tcp_params {
  std::uint32_t rank = 0;
  std::uint32_t nranks = 2;
  // Data-plane listen address; port 0 binds an ephemeral port (the actual
  // address is what listen_address() reports to the bootstrap).
  std::string listen = "127.0.0.1:0";
  // Poisons a connection whose stream claims a frame larger than this.
  std::size_t max_frame_bytes = 64u << 20;
  // Dial retry budget while the mesh comes up (peers start asynchronously).
  std::uint64_t connect_timeout_ms = 20'000;
};

class tcp_transport final : public distributed_transport {
 public:
  explicit tcp_transport(tcp_params params);
  ~tcp_transport() override;

  tcp_transport(const tcp_transport&) = delete;
  tcp_transport& operator=(const tcp_transport&) = delete;

  // Actual bound data-plane address ("host:port"), for the bootstrap
  // endpoint table.
  std::string listen_address() const override;

  // Establishes the full mesh from the bootstrap-exchanged table (index ==
  // rank; our own entry is ignored) and starts the progress thread.
  // Blocks until every peer link is up; asserts on timeout.
  void connect_peers(const std::vector<std::string>& table) override;

  // ------------------------------------------------- transport interface

  // Only this process's own rank is a valid endpoint for a handler.
  void set_handler(endpoint_id ep, handler h) override;
  void set_idle_callback(std::function<void()> cb) override;
  void send(message m) override;
  void drain() override;
  std::uint64_t in_flight() const noexcept override {
    return in_flight_.load(std::memory_order_acquire);
  }
  std::uint64_t messages_sent_total() const noexcept override {
    return sent_total_.load(std::memory_order_acquire);
  }
  util::buffer_pool& pool() noexcept override { return pool_; }
  std::size_t endpoints() const noexcept override { return params_.nranks; }
  // Traffic totals of *this* rank (ep must equal rank; remote ranks keep
  // their own books — ask them with a query_counter parcel).
  endpoint_stats stats(endpoint_id ep) const override;
  link_counters link(endpoint_id ep) const override;
  const char* backend_name() const noexcept override { return "tcp"; }
  // TCP-specific rows: extra dial attempts while the mesh came up, and
  // frames the sending thread wrote into the socket itself.
  std::vector<extra_link_counter> extra_link_counters(
      endpoint_id ep) const override;

  // Monotonic count of units fully delivered to the handler; the second
  // half of the distributed quiescence sent/delivered balance.
  std::uint64_t parcels_received_total() const noexcept override {
    return received_total_.load(std::memory_order_acquire);
  }

  // Units accepted by send() but dropped before reaching a wire (dead
  // link).  The quiescence books subtract these from the sent total: a
  // dropped parcel will never be delivered anywhere, and leaving it in
  // the balance would make global sent == delivered unsatisfiable — every
  // rank would spin in quiesce rounds forever.
  std::uint64_t parcels_dropped_total() const noexcept override {
    return dropped_total_.load(std::memory_order_acquire);
  }

  const tcp_params& params() const noexcept { return params_; }

 protected:
  // distributed_transport resilience seam: request an asynchronous close
  // of the link to `rank` on the progress thread (external death verdict).
  void close_link(std::size_t rank) override;

 private:
  struct outgoing {
    std::vector<std::byte> buf;
    std::size_t offset = 0;   // bytes already written to the kernel
    std::uint32_t units = 0;  // parcels carried (in_flight accounting)
  };
  struct peer {
    int fd = -1;
    std::uint32_t rank = 0;
    // Written only by the progress thread (under send_lock) after start;
    // senders read it under send_lock before any direct write to `fd`.
    bool open = false;
    util::spinlock send_lock;
    std::deque<outgoing> sendq;  // guarded by send_lock
    parcel::frame_assembler assembler;  // progress thread only
    std::atomic<std::uint64_t> reconnects{0};
  };

  void progress_loop();
  void wake_progress();
  // Writes as much of `p`'s queue as the kernel accepts; returns false if
  // the connection died.
  bool pump_sends(peer& p);
  // Reads everything available, reassembles, dispatches complete frames;
  // returns false on EOF/error.
  bool pump_reads(peer& p);
  // `why == nullptr` means an orderly/expected close; anything else is an
  // unexpected disconnect and marks the peer dead in the shared books.
  void close_peer(peer& p, const char* why);

  tcp_params params_;
  int listen_fd_ = -1;
  std::string listen_addr_;  // actual bound host:port
  int wake_fds_[2] = {-1, -1};  // self-pipe: senders kick the poll loop

  handler handler_;
  std::function<void()> idle_cb_;
  std::vector<std::unique_ptr<peer>> peers_;  // index == peer rank
  util::buffer_pool pool_;
  std::vector<std::byte> scratch_;  // progress-thread receive buffer

  std::atomic<bool> traffic_started_{false};
  std::atomic<bool> stopping_{false};
  // Ranks whose links close_link() asked the progress thread to tear down.
  std::atomic<std::uint64_t> pending_dead_{0};
  // Removes `units` from the in-flight books and wakes drain() waiters on
  // the transition to zero (notify under drain_mutex_: lost-wakeup-free).
  void retire_in_flight(std::uint64_t units);

  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<std::uint64_t> sent_total_{0};
  std::atomic<std::uint64_t> received_total_{0};
  std::atomic<std::uint64_t> dropped_total_{0};
  std::atomic<std::uint64_t> direct_sends_{0};  // frames send() wrote itself

  // Aggregate tx/rx books for stats()/link() (this rank's endpoint only).
  std::atomic<std::uint64_t> msgs_tx_{0};
  std::atomic<std::uint64_t> parcels_tx_{0};
  std::atomic<std::uint64_t> bytes_tx_{0};
  std::atomic<std::uint64_t> msgs_rx_{0};
  std::atomic<std::uint64_t> bytes_rx_{0};

  mutable std::mutex drain_mutex_;
  std::condition_variable drained_cv_;

  std::thread progress_;
};

}  // namespace px::net
