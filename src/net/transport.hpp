// Transport: the runtime's pluggable wire abstraction.
//
// PR 2 built the parcel pipeline against the simulated `net::fabric`; this
// interface is the seam that lets the same pipeline run over a real network.
// Everything above it — parcel ports, quiescence accounting, delivery into
// localities — talks only to `transport`, and a backend is chosen at runtime
// construction (PX_NET_BACKEND): the latency-modelled in-process fabric
// (default; every test and bench keeps its physics), the TCP backend in
// net/tcp_transport.hpp where each endpoint is a separate OS process, or the
// same-host shared-memory backend in net/shm_transport.hpp.
//
// Contract every backend must honor (the quiescence protocol depends on it):
//   * send() never blocks on the receiver and is thread-safe;
//   * messages_sent_total() counts *units* (logical parcels) and is bumped
//     before the message becomes visible to any progress machinery;
//   * in_flight() covers every unit accepted by send() that this process
//     still holds (queued or mid-delivery).  For the fabric that means
//     until the receive handler returned; for TCP it means until the last
//     byte reached the kernel; for shm it means until the peer's consumer
//     finished handling the frame — cross-process flight is additionally
//     tracked by the distributed quiescence counters (runtime::wait_quiescent);
//   * drain() blocks until in_flight() == 0;
//   * handlers run on the progress thread or a polling worker, the idle
//     callback on the progress thread; neither may block for long.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "util/buffer_pool.hpp"
#include "util/spinlock.hpp"

namespace px::util {
class fault_injector;
}

namespace px::net {

using endpoint_id = std::uint32_t;

// Backend selection and distributed identity.  Every field left at its
// default resolves from the PX_NET_* environment in the runtime ctor (the
// launcher's channel to its ranks); explicit values win.
//
//   backend   ""  -> PX_NET_BACKEND -> "sim"      "sim" | "tcp" | "shm"
//   rank      -1  -> PX_NET_RANK    -> 0          this process's locality id
//   ranks     0   -> PX_NET_RANKS                 total processes (tcp/shm)
//   listen    ""  -> PX_NET_LISTEN  -> "127.0.0.1:0"   data-plane bind (tcp)
//   root      ""  -> PX_NET_ROOT    -> "127.0.0.1:7733" rank 0 control addr
struct net_params {
  std::string backend;
  std::int64_t rank = -1;
  std::int64_t ranks = 0;
  std::string listen;
  std::string root;
};

struct message {
  endpoint_id source = 0;
  endpoint_id dest = 0;
  std::uint64_t tag = 0;  // channel discriminator for the CSP baseline
  std::vector<std::byte> payload;
  std::uint32_t units = 1;  // logical parcels carried (1 for plain traffic)
  // Set by the parcel port on coalesced frames (threshold, idle or demand
  // flush): more traffic is likely close behind, so tcp leaves the write
  // to its progress thread.  An unset frame is isolated, and tcp writes it
  // from the sending thread.  shm and sim ignore it.
  bool batch = false;
};

struct endpoint_stats {
  std::uint64_t messages_sent = 0;   // frames put on the wire
  std::uint64_t parcels_sent = 0;    // logical units (== messages unbatched)
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

// Per-endpoint traffic totals in the shape the introspection registry
// exposes them (runtime/loc<i>/net/*): what this endpoint put on and took
// off the wire.  Backend-specific churn (TCP re-dials, shm ring stalls)
// is published through extra_link_counters() below, so the schema only
// carries rows the active backend actually maintains.
struct link_counters {
  std::uint64_t bytes_tx = 0;
  std::uint64_t bytes_rx = 0;
  std::uint64_t msgs_tx = 0;
  std::uint64_t msgs_rx = 0;
};

// A backend-specific counter row: registered as runtime/loc<i>/net/<name>
// only when that backend is active, keeping the schema honest (the fix for
// `reconnects` reading as an always-zero row under sim).  All ranks run
// the same backend, so positional gid allocation still replays identically
// machine-wide.
struct extra_link_counter {
  const char* name;
  std::uint64_t value;
};

class transport {
 public:
  // The payload is owned by the transport after send(): the receive-side
  // handler decodes in place or steals it, and whatever capacity is left is
  // recycled through pool().
  using handler = std::function<void(message&)>;

  virtual ~transport();  // key function (transport.cpp)

  // Registration is not thread-safe and must complete before the first
  // send(); backends assert this.
  virtual void set_handler(endpoint_id ep, handler h) = 0;

  // Optional backstop invoked by the progress thread whenever its queues
  // run dry (bounded staleness, ~200us-1ms): the runtime uses it to flush
  // outbound coalescing buffers even if every scheduler worker is pinned
  // busy.  Must be set before traffic starts; runs on the progress thread.
  virtual void set_idle_callback(std::function<void()> cb) = 0;

  // Thread-safe; never blocks on the receiver.  Asserts endpoint ranges.
  virtual void send(message m) = 0;

  // Blocks until in_flight() == 0 (see the class comment for what a
  // backend counts as in flight).
  virtual void drain() = 0;

  virtual std::uint64_t in_flight() const noexcept = 0;

  // Monotonic count of units accepted by send(); paired with
  // scheduler::spawn_count() in the quiescence activity snapshot.
  virtual std::uint64_t messages_sent_total() const noexcept = 0;

  // Recycled payload buffers; senders acquire here so the steady state
  // allocates nothing per message.
  virtual util::buffer_pool& pool() noexcept = 0;

  virtual std::size_t endpoints() const noexcept = 0;
  virtual endpoint_stats stats(endpoint_id ep) const = 0;
  // stats(ep) in the runtime/loc<i>/net/* shape.
  link_counters link(endpoint_id ep) const;
  virtual const char* backend_name() const noexcept = 0;

  // Backend-specific counter rows for endpoint `ep` (empty by default).
  // Names must be stable across the run; the runtime registers one
  // introspection counter per row at boot.
  virtual std::vector<extra_link_counter> extra_link_counters(
      endpoint_id ep) const {
    (void)ep;
    return {};
  }
};

// Validation gate for whole-frame channels (shm rings today, an
// ibverbs/libfabric RECV completion tomorrow), which skip
// parcel::frame_assembler: the bypass must not also bypass its safety
// properties.  accept() runs the same checks the assembler applies to a
// cut frame — bounded size, then a full frame_view::parse walk (magic,
// count, every record length, every parcel header) — and returns the
// frame's record count on success.  Any rejection poisons the ingest
// permanently (the assembler's poison-don't-resync stance: a corrupt
// shared-memory ring has no trustworthy next message), and the owner must
// tear the link down.
class whole_frame_ingest {
 public:
  explicit whole_frame_ingest(std::size_t max_frame_bytes = 64u << 20)
      : max_frame_bytes_(max_frame_bytes) {}

  // Returns the validated frame's record count, or nullopt (poisoning the
  // ingest) if the frame is oversize or fails frame_view::parse.
  std::optional<std::uint32_t> accept(std::span<const std::byte> frame);

  bool poisoned() const noexcept { return poisoned_; }

 private:
  std::size_t max_frame_bytes_;
  bool poisoned_ = false;
};

// The link engine of every multi-process backend (tcp, shm, a future RDMA
// transport; not the fabric, which models a whole machine in one process).
// It owns, once for every backend:
//   * send(): asserts, counters, per-peer books, the PX_FAULT and
//     dead-link drops, and one rule — a frame to a peer whose send queue
//     is empty goes to try_write() from the sending thread, under the
//     peer's send lock; the rest waits in the queue, in order, for the
//     pump.  With direct_batches == false (tcp), batch frames always queue;
//   * in_flight() and drain(): queued units plus, per open link, the
//     channel's unconsumed_units();
//   * the peer ledger: per-peer unit books and the orderly-vs-unexpected
//     disconnect accounting, so both backends report rank loss the same
//     way: one death-handler call per link that died, whatever saw it
//     (tcp EOF, shm pid probe or closed flag, or mark_peer_dead from the
//     control plane's verdict; docs/resilience.md);
//   * close_peer(), the one close routine, and the progress thread: fold
//     pending closes, wait() for ready links, pump them, wake drain()
//     waiters, run the idle callback after a wait that timed out, and exit
//     once stopping with nothing in flight;
//   * poll(): idle workers pump too.  One pump routine under one receive
//     claim keeps one consumer per channel, and so its frame order.
// A backend supplies its ctor, listen_address(), connect_peers() (ending
// in start_progress()), a dtor that begins with stop_progress(), and the
// channel hooks below.
class distributed_transport : public transport {
 public:
  ~distributed_transport() override;  // key function (transport.cpp)

  // The string peers need to reach this endpoint, exchanged (opaquely)
  // through the bootstrap hello/reply: "host:port" for tcp, the shm
  // segment-name token for shm.
  virtual std::string listen_address() const = 0;

  // Establishes the full pairwise mesh from the bootstrap-exchanged
  // endpoint table (index == rank) and starts the progress thread.
  virtual void connect_peers(const std::vector<std::string>& table) = 0;

  // ------------------------------------------------- transport interface

  // Only this process's own rank takes a handler or has stats.
  void set_handler(endpoint_id ep, handler h) final;
  void set_idle_callback(std::function<void()> cb) final;
  void send(message m) final;
  void drain() final;
  std::uint64_t in_flight() const noexcept final;
  std::uint64_t messages_sent_total() const noexcept final {
    return sent_total_.load(std::memory_order_acquire);
  }
  util::buffer_pool& pool() noexcept final { return pool_; }
  std::size_t endpoints() const noexcept final { return links_.size(); }
  endpoint_stats stats(endpoint_id ep) const final;
  // channel_counters(), then peer_failed and parcels_lost.
  std::vector<extra_link_counter> extra_link_counters(
      endpoint_id ep) const final;

  // Units fully delivered to this process's handler / units this process
  // dropped (dead link, refused frame, PX_FAULT): inputs to the
  // machine-wide parcel conservation identity in runtime::wait_quiescent.
  std::uint64_t parcels_received_total() const noexcept {
    return received_total_.load(std::memory_order_acquire);
  }
  std::uint64_t parcels_dropped_total() const noexcept {
    return dropped_total_.load(std::memory_order_acquire);
  }

  // Frames send() put into the channel itself / parked in a send queue
  // (tcp publishes the first as direct_sends, shm the second as
  // ring_full_waits).
  std::uint64_t direct_frames() const noexcept {
    return direct_frames_.load(std::memory_order_relaxed);
  }
  std::uint64_t queued_frames() const noexcept {
    return queued_frames_.load(std::memory_order_relaxed);
  }

  // The scheduler's poll hook: poll(false) each pass of a worker's spin
  // window pumps what is pollable(), unless another thread holds the
  // claim; poll(true) leaves.  The last poller out re-checks the links and
  // wakes the progress thread if something is waiting.
  void poll(bool leaving);
  std::uint64_t worker_frames() const noexcept {  // frames poll() delivered
    return worker_rx_.load(std::memory_order_relaxed);
  }

  // Arms orderly-shutdown mode: subsequent peer EOFs/closures are expected
  // teardown, not deaths.
  void expect_peer_disconnects() noexcept { closing_.store(true); }
  bool disconnects_expected() const noexcept { return closing_.load(); }

  // ---- resilience seam -------------------------------------------------

  // The control plane's death verdict: tear down the link to `rank` and
  // fold its outstanding units into the conservation books.  Thread-safe;
  // the close runs on the progress thread, once per link.
  void mark_peer_dead(std::size_t rank) noexcept;

  // Called once per link that closed unexpectedly (the peer is dead),
  // after the books are folded.  Runs on the progress thread; must not
  // block.  Must be installed before connect_peers().
  void set_peer_death_handler(std::function<void(std::size_t)> h) {
    on_peer_death_ = std::move(h);
  }

  // Arms deterministic fault injection (PX_FAULT) on the send path; null
  // (the default) costs one pointer test per send.  Install before
  // connect_peers().
  void arm_faults(util::fault_injector* f) noexcept { fault_ = f; }

  // Books of the links that closed unexpectedly, counted in this order:
  // parcels_lost, peers_failed, unexpected_disconnects.  A reader that
  // sees a casualty in a later one sees the earlier ones final.
  std::uint64_t peers_failed_total() const noexcept {
    return peers_failed_.load();
  }
  // Units this endpoint put on the wire toward now-dead peers whose fate
  // is unknown (the casualty may or may not have handled them before
  // dying): the lost_to_casualty term of the conservation identity.
  std::uint64_t parcels_lost_total() const noexcept {
    return parcels_lost_.load();
  }
  std::uint64_t orderly_disconnects() const noexcept {
    return orderly_disconnects_.load();
  }
  std::uint64_t unexpected_disconnects() const noexcept {
    return unexpected_disconnects_.load();
  }

  // Per-peer unit books (index == rank; the self row stays zero).
  std::uint64_t units_sent_to(std::size_t r) const noexcept {
    return r < units_to_.size() ? units_to_[r].load() : 0;
  }
  std::uint64_t units_received_from(std::size_t r) const noexcept {
    return r < units_from_.size() ? units_from_[r].load() : 0;
  }
  std::uint64_t units_dropped_to(std::size_t r) const noexcept {
    return r < dropped_to_.size() ? dropped_to_[r].load() : 0;
  }

  // The reduced-membership quiescence ledger: units on the wire toward /
  // received from peers *not* in `dead_mask` — the casualty's column
  // drops out of both sides, so Mattern rounds converge minus the
  // casualty (runtime::wait_quiescent).
  std::uint64_t live_units_sent(std::uint64_t dead_mask) const noexcept;
  std::uint64_t live_units_received(std::uint64_t dead_mask) const noexcept;

 protected:
  // A frame in a send queue; `offset` bytes of it are in the channel.
  struct outgoing {
    std::vector<std::byte> buf;
    std::size_t offset = 0;
    std::uint32_t units = 0;
  };
  enum class write_status {
    done,     // the whole frame is in the channel
    blocked,  // the channel is full for now (`offset` says how far it got)
    broken,   // the link failed: the progress thread closes it
    refused,  // the channel can never carry this frame: dropped
  };
  // Bit r: link r is ready for pump_in() (`in`) / its queue for
  // try_write() (`out`).  `timed_out`: a full wait passed idle.
  struct ready_links {
    std::uint64_t in = 0;
    std::uint64_t out = 0;
    bool timed_out = false;
  };

  // `direct_batches`: whether send() tries the channel for
  // message::batch frames too.
  distributed_transport(std::uint32_t rank, std::uint32_t nranks,
                        bool direct_batches);

  // ---- the byte channel, supplied by the backend ----------------------

  // Puts `o` from `o.offset` into the channel to `rank` without blocking,
  // advancing `o.offset`.  Called from send() under the peer's send lock,
  // or by the receive claim's holder for the queue's front; never twice at
  // once for one peer.
  virtual write_status try_write(std::size_t rank, outgoing& o) = 0;
  // Receive claim's holder: takes in what link `rank` has, hands each
  // whole frame to deliver(), and close_peer()s on EOF or garbage.  True
  // if anything happened.
  virtual bool pump_in(std::size_t rank) = 0;
  // Any thread: whether link `rank` holds a frame or a close for
  // pump_in().  False (the default) leaves the link to the progress thread.
  virtual bool has_input(std::size_t rank) const noexcept {
    (void)rank;
    return false;
  }
  // The first worker began (`true`) or the last one stopped polling.
  virtual void polled(bool any) { (void)any; }
  // Progress thread: waits until some link is ready, wake() is called or
  // a short timeout passes.  With `idle` false (the last pass did work),
  // a channel that pumps every link each pass may return all at once.
  virtual ready_links wait(bool idle) = 0;
  // Any thread: makes a blocked or the next wait() return promptly.
  virtual void wake() = 0;
  // Units in the channel to `rank` its peer has not consumed yet; in
  // flight while the link is open.
  virtual std::uint64_t unconsumed_units(std::size_t rank) const noexcept {
    (void)rank;
    return 0;
  }
  // From close_peer(): releases the channel to `rank`.
  virtual void close_channel(std::size_t rank) = 0;
  virtual std::vector<extra_link_counter> channel_counters() const = 0;

  // ---- the engine, called by the backend ------------------------------

  // Opens every peer link and starts the progress thread.
  void start_progress();
  // Lets the progress thread drain what is in flight, then joins it.
  void stop_progress();
  // Receive claim's holder: runs the handler on one whole frame of
  // `units` parcels from `rank` and books the delivery.
  void deliver(std::size_t rank, std::vector<std::byte>&& frame,
               std::uint32_t units);
  // Closes link `rank`, once.  `why == nullptr` is an orderly close;
  // anything else is logged and reports the peer dead.  Clears `open`
  // under the send lock (no sender touches the channel again), releases
  // the channel, folds the queued units — on an orderly close also the
  // unconsumed ones — into the dropped books, then, with no lock held,
  // books the disconnect (which may fire the death handler).  Off the
  // progress thread it only asks that thread to close the link, so the
  // death handler never runs in scheduler context.
  void close_peer(std::size_t rank, const char* why);
  bool workers_polling() const noexcept {
    return pollers_.load(std::memory_order_seq_cst) != 0;
  }
  // `why`, or nullptr while stopping or once disconnects are expected.
  const char* unless_expected(const char* why) const noexcept;
  bool link_open(std::size_t rank) const noexcept {
    return links_[rank].open.load(std::memory_order_acquire);
  }
  bool backlogged(std::size_t rank) {  // frames wait in rank's queue
    std::lock_guard lock(links_[rank].send_lock);
    return !links_[rank].sendq.empty();
  }

 private:
  struct alignas(64) peer_link {
    // Written under send_lock; senders read it there before try_write.
    std::atomic<bool> open{false};
    util::spinlock send_lock;
    // Units in sendq: written under send_lock, read by in_flight().
    std::atomic<std::uint64_t> queued_units{0};
    std::deque<outgoing> sendq;  // guarded by send_lock
    // Why the progress thread is to close this link (pending_close_).
    std::atomic<const char*> verdict{nullptr};
  };

  void progress_loop();
  // Links with input, and (where any thread writes) with a queue.
  ready_links pollable() const noexcept;
  // The one pump routine, under the receive claim; false without it.
  bool pump(const ready_links& ready);
  // Asks the progress thread to close link `rank` for `why`.
  void hand_over(std::size_t rank, const char* why) noexcept;
  // Writes the queue's front frames until the channel balks.
  bool pump_out(std::size_t rank);
  void drop(std::size_t rank, std::uint64_t units) noexcept;
  // Wakes drain() waiters once in_flight() reads 0.
  void notify_if_drained();
  // The last step of close_peer: an unexpected close freezes the
  // lost-units figure and fires the death handler; an orderly close only
  // counts.
  void note_peer_closed(std::size_t rank, bool orderly);

  const std::uint32_t self_rank_;
  const bool direct_batches_;
  std::vector<peer_link> links_;  // index == peer rank
  handler handler_;
  std::function<void()> idle_cb_;
  util::buffer_pool pool_;
  std::thread progress_;

  // One cache line each: written by senders / by the progress thread /
  // read on every progress pass.
  alignas(64) std::atomic<bool> traffic_started_{false};
  std::atomic<std::uint64_t> sent_total_{0};
  std::atomic<std::uint64_t> msgs_tx_{0};
  std::atomic<std::uint64_t> parcels_tx_{0};
  std::atomic<std::uint64_t> bytes_tx_{0};
  std::atomic<std::uint64_t> direct_frames_{0};
  std::atomic<std::uint64_t> queued_frames_{0};
  alignas(64) std::atomic<std::uint64_t> received_total_{0};
  std::atomic<std::uint64_t> msgs_rx_{0};
  std::atomic<std::uint64_t> bytes_rx_{0};
  std::atomic<std::uint64_t> dropped_total_{0};
  alignas(64) std::atomic<bool> stopping_{false};
  std::atomic<bool> closing_{false};
  // Links the progress thread is to close, each for its `verdict`.
  std::atomic<std::uint64_t> pending_close_{0};
  // One consumer per channel: held by whichever thread pumps.
  std::atomic<bool> rx_claim_{false};
  std::atomic<std::uint32_t> pollers_{0};  // workers inside poll()
  std::atomic<std::uint64_t> worker_rx_{0};
  // drain() waiters count themselves in, so the progress thread takes
  // drain_mutex_ only when someone waits.
  std::atomic<std::uint32_t> drain_waiters_{0};
  std::mutex drain_mutex_;
  std::condition_variable drained_cv_;

  std::atomic<std::uint64_t> peers_failed_{0};
  std::atomic<std::uint64_t> parcels_lost_{0};
  std::atomic<std::uint64_t> orderly_disconnects_{0};
  std::atomic<std::uint64_t> unexpected_disconnects_{0};
  std::vector<std::atomic<std::uint64_t>> units_to_;
  std::vector<std::atomic<std::uint64_t>> units_from_;
  std::vector<std::atomic<std::uint64_t>> dropped_to_;
  std::function<void(std::size_t)> on_peer_death_;
  util::fault_injector* fault_ = nullptr;
};

// Parses "host:port" (the PX_NET_LISTEN / PX_NET_ROOT syntax); asserts on
// malformed input.
std::pair<std::string, std::uint16_t> split_host_port(const std::string& s);

}  // namespace px::net
