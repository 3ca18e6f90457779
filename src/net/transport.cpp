#include "net/transport.hpp"

#include <chrono>

#include "net/socket_util.hpp"
#include "parcel/parcel.hpp"
#include "util/assert.hpp"
#include "util/fault.hpp"
#include "util/fence.hpp"
#include "util/log.hpp"

namespace px::net {

namespace {
// The transport whose progress thread / whose poll() this thread is in.
thread_local const distributed_transport* tl_progress = nullptr;
thread_local const distributed_transport* tl_polling = nullptr;
}  // namespace

// Key functions: anchor the transport vtables in one translation unit.
transport::~transport() = default;
distributed_transport::~distributed_transport() = default;

link_counters transport::link(endpoint_id ep) const {
  const endpoint_stats st = stats(ep);
  return {st.bytes_sent, st.bytes_received, st.messages_sent,
          st.messages_received};
}

distributed_transport::distributed_transport(std::uint32_t rank,
                                             std::uint32_t nranks,
                                             bool direct_batches)
    : self_rank_(rank),
      direct_batches_(direct_batches),
      links_(nranks),
      units_to_(nranks),
      units_from_(nranks),
      dropped_to_(nranks) {
  PX_ASSERT_MSG(rank < nranks, "transport: rank out of range");
  PX_ASSERT_MSG(nranks <= 64, "peer ledger caps the machine at 64 ranks");
}

void distributed_transport::set_handler(endpoint_id ep, handler h) {
  PX_ASSERT_MSG(ep == self_rank_,
                "transport: only this process's rank takes a handler");
  PX_ASSERT_MSG(!traffic_started_.load(std::memory_order_acquire),
                "set_handler after traffic started");
  handler_ = std::move(h);
}

void distributed_transport::set_idle_callback(std::function<void()> cb) {
  PX_ASSERT_MSG(!traffic_started_.load(std::memory_order_acquire),
                "set_idle_callback after traffic started");
  idle_cb_ = std::move(cb);
}

void distributed_transport::send(message m) {
  PX_ASSERT_MSG(m.dest < links_.size() && m.dest != self_rank_,
                "send: dest must be a remote rank");
  PX_ASSERT_MSG(m.source == self_rank_, "send: source must be this rank");
  PX_ASSERT(m.units >= 1);
  if (!traffic_started_.load(std::memory_order_relaxed)) {
    traffic_started_.store(true, std::memory_order_release);
  }
  const std::uint32_t units = m.units;
  sent_total_.fetch_add(units, std::memory_order_acq_rel);
  units_to_[m.dest].fetch_add(units);
  if (fault_ != nullptr && fault_->on_send(m.dest, units) > 0) {
    // Injected drop (PX_FAULT): the units retire into the conservation
    // books exactly like a dead-link drop, so quiescence still balances.
    drop(m.dest, units);
    pool_.release(std::move(m.payload));
    return;
  }
  msgs_tx_.fetch_add(1, std::memory_order_relaxed);
  parcels_tx_.fetch_add(units, std::memory_order_relaxed);
  bytes_tx_.fetch_add(m.payload.size(), std::memory_order_relaxed);

  peer_link& l = links_[m.dest];
  outgoing o{std::move(m.payload), 0, units};
  write_status st = write_status::broken;  // until the link reads open
  bool queued = false;
  {
    std::lock_guard lock(l.send_lock);
    if (l.open.load(std::memory_order_relaxed)) {
      st = write_status::blocked;
      if (l.sendq.empty() && (direct_batches_ || !m.batch)) {
        // Empty queue: try the channel now.  The lock keeps byte order
        // (the progress thread writes only a frame still queued) and the
        // channel alive (close_peer clears `open` under it first).
        st = try_write(m.dest, o);
      }
      if (st == write_status::blocked || st == write_status::broken) {
        // The rest waits its turn; a broken channel is met again, and
        // closed, by the progress thread.
        l.sendq.push_back(std::move(o));
        l.queued_units.fetch_add(units, std::memory_order_release);
        queued = true;
      }
    }
  }
  if (queued) {
    queued_frames_.fetch_add(1, std::memory_order_relaxed);
    wake();
    return;
  }
  if (st == write_status::done) {
    direct_frames_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Refused by the channel (it said why), or a dead link mid-run: drop,
    // with the drop recorded so the quiescence books stay balanced,
    // rather than wedge every drain() forever.
    drop(m.dest, units);
    if (st == write_status::broken && !disconnects_expected()) {
      PX_LOG_WARN("%s send: peer %u link is down, dropping %u parcels",
                  backend_name(), m.dest, units);
    }
  }
  pool_.release(std::move(o.buf));
}

bool distributed_transport::pump_out(std::size_t rank) {
  peer_link& l = links_[rank];
  bool any = false;
  for (;;) {
    outgoing* front = nullptr;
    {
      std::lock_guard lock(l.send_lock);
      if (l.sendq.empty()) return any;
      front = &l.sendq.front();  // deque: push_back never moves the front
    }
    const write_status st = try_write(rank, *front);
    if (st == write_status::blocked) return any;
    if (st == write_status::broken) {
      close_peer(rank, unless_expected("send error"));
      return any;
    }
    const std::uint32_t units = front->units;
    std::vector<std::byte> done = std::move(front->buf);
    if (st == write_status::refused) drop(rank, units);
    {
      std::lock_guard lock(l.send_lock);
      l.sendq.pop_front();
      l.queued_units.fetch_sub(units, std::memory_order_release);
    }
    pool_.release(std::move(done));
    notify_if_drained();
    any = true;
  }
}

void distributed_transport::drop(std::size_t rank,
                                 std::uint64_t units) noexcept {
  dropped_total_.fetch_add(units, std::memory_order_acq_rel);
  dropped_to_[rank].fetch_add(units);
}

void distributed_transport::notify_if_drained() {
  // Dekker with drain(): a waiter counts itself in before it reads
  // in_flight(), and every caller reads the count after the books
  // changed, so one side always sees the other.
  if (drain_waiters_.load(std::memory_order_seq_cst) != 0 &&
      in_flight() == 0) {
    { std::lock_guard lock(drain_mutex_); }
    drained_cv_.notify_all();
  }
}

void distributed_transport::drain() {
  std::unique_lock lock(drain_mutex_);
  drain_waiters_.fetch_add(1, std::memory_order_seq_cst);
  while (in_flight() != 0) {
    // The progress thread notifies once it sees in_flight() reach 0; the
    // timeout bounds a notification the channel can only poll for.
    drained_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
  drain_waiters_.fetch_sub(1, std::memory_order_seq_cst);
}

std::uint64_t distributed_transport::in_flight() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t r = 0; r < links_.size(); ++r) {
    total += links_[r].queued_units.load(std::memory_order_acquire);
    if (link_open(r)) total += unconsumed_units(r);
  }
  return total;
}

void distributed_transport::deliver(std::size_t rank,
                                    std::vector<std::byte>&& frame,
                                    std::uint32_t units) {
  bytes_rx_.fetch_add(frame.size(), std::memory_order_relaxed);
  if (units == 0) {  // empty frame: nothing to deliver
    pool_.release(std::move(frame));
    return;
  }
  message m;
  m.source = static_cast<endpoint_id>(rank);
  m.dest = self_rank_;
  m.units = units;
  m.payload = std::move(frame);
  msgs_rx_.fetch_add(1, std::memory_order_relaxed);
  if (tl_polling == this) worker_rx_.fetch_add(1, std::memory_order_relaxed);
  handler_(m);
  if (m.payload.capacity() > 0) pool_.release(std::move(m.payload));
  // Counted only after the handler returned: "delivered" in the
  // distributed quiescence books means the parcels' local effects
  // (thread spawns, counter bumps) are already visible.
  received_total_.fetch_add(units, std::memory_order_acq_rel);
  units_from_[rank].fetch_add(units);
}

const char* distributed_transport::unless_expected(
    const char* why) const noexcept {
  return stopping_.load(std::memory_order_acquire) || disconnects_expected()
             ? nullptr
             : why;
}

void distributed_transport::close_peer(std::size_t rank, const char* why) {
  if (tl_progress != this) {
    hand_over(rank, why);
    return;
  }
  peer_link& l = links_[rank];
  std::uint64_t orphaned = 0;
  {
    std::lock_guard lock(l.send_lock);
    if (!l.open.load(std::memory_order_relaxed)) return;
    l.open.store(false, std::memory_order_release);
    for (const outgoing& o : l.sendq) orphaned += o.units;
    l.sendq.clear();
  }
  if (why != nullptr) {
    PX_LOG_WARN("%s transport rank %u: closing link to peer %zu (%s)",
                backend_name(), self_rank_, rank, why);
  }
  // An orderly close also retires the units the peer will never
  // (verifiably) consume, so conservation stays satisfiable without a
  // death verdict.  An unexpected close leaves them in the outstanding
  // column: the death fold charges everything sent-minus-dropped as lost,
  // whatever the casualty's consumer got to before dying.
  const std::uint64_t unconsumed = why == nullptr ? unconsumed_units(rank) : 0;
  close_channel(rank);
  // Unsendable parcels must leave both the in-flight books (or drain()
  // wedges) and the quiescence sent balance (or quiesce rounds spin).
  if (orphaned + unconsumed > 0) drop(rank, orphaned + unconsumed);
  l.queued_units.store(0, std::memory_order_release);  // no sender queues now
  notify_if_drained();
  note_peer_closed(rank, why == nullptr);
}

void distributed_transport::start_progress() {
  PX_ASSERT_MSG(!progress_.joinable(), "transport: mesh already up");
  for (std::size_t r = 0; r < links_.size(); ++r) {
    if (r != self_rank_) links_[r].open.store(true, std::memory_order_release);
  }
  progress_ = std::thread([this] { progress_loop(); });
}

void distributed_transport::stop_progress() {
  stopping_.store(true, std::memory_order_release);
  if (progress_.joinable()) {
    wake();
    progress_.join();
  }
}

void distributed_transport::progress_loop() {
  tl_progress = this;
  bool idle = false;
  for (;;) {
    const ready_links ready = wait(idle);
    if (ready.timed_out && idle_cb_) idle_cb_();
    // Death verdicts (mark_peer_dead) and the closes a polling worker met
    // land here, so every link close runs on the progress thread.
    const std::uint64_t doomed =
        pending_close_.load(std::memory_order_relaxed) != 0
            ? pending_close_.exchange(0, std::memory_order_acq_rel)
            : 0;
    for (std::size_t r = 0; doomed != 0 && r < links_.size(); ++r) {
      if ((doomed >> r) & 1u) {
        close_peer(r, links_[r].verdict.load(std::memory_order_acquire));
      }
    }
    const bool did = pump(ready);
    notify_if_drained();
    if (stopping_.load(std::memory_order_acquire) && in_flight() == 0) {
      return;  // every accepted parcel left this process: graceful drain
    }
    idle = !did;
  }
}

bool distributed_transport::pump(const ready_links& ready) {
  if (rx_claim_.exchange(true, std::memory_order_acquire)) return false;
  bool did = false;
  for (std::size_t r = 0; r < links_.size(); ++r) {
    // A pump may close its link, so `open` is read before each.
    if (((ready.in >> r) & 1u) && link_open(r)) did |= pump_in(r);
    if (((ready.out >> r) & 1u) && link_open(r)) did |= pump_out(r);
  }
  rx_claim_.store(false, std::memory_order_release);
  return did;
}

distributed_transport::ready_links distributed_transport::pollable()
    const noexcept {
  ready_links ready;
  const std::uint64_t closing = pending_close_.load(std::memory_order_relaxed);
  for (std::size_t r = 0; r < links_.size(); ++r) {
    if (r == self_rank_ || ((closing >> r) & 1u) || !link_open(r)) continue;
    if (has_input(r)) ready.in |= 1ull << r;
    if (direct_batches_ &&
        links_[r].queued_units.load(std::memory_order_relaxed) != 0) {
      ready.out |= 1ull << r;
    }
  }
  return ready;
}

void distributed_transport::poll(bool leaving) {
  if (leaving) {
    if (tl_polling != this) return;
    tl_polling = nullptr;
    if (pollers_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      // Senders wake the progress thread again from here; what one left
      // while it still skipped the wake is handed on (wait()'s Dekker).
      polled(false);
      util::thread_fence(std::memory_order_seq_cst);
      const ready_links left = pollable();
      if ((left.in | left.out) != 0) wake();
    }
    return;
  }
  if (tl_polling != this) {
    tl_polling = this;
    if (pollers_.fetch_add(1, std::memory_order_seq_cst) == 0) polled(true);
  }
  const ready_links ready = pollable();
  if ((ready.in | ready.out) != 0) pump(ready);
}

endpoint_stats distributed_transport::stats(endpoint_id ep) const {
  PX_ASSERT_MSG(ep == self_rank_, "stats: remote ranks keep their own books");
  endpoint_stats out;
  out.messages_sent = msgs_tx_.load(std::memory_order_relaxed);
  out.parcels_sent = parcels_tx_.load(std::memory_order_relaxed);
  out.messages_received = msgs_rx_.load(std::memory_order_relaxed);
  out.bytes_sent = bytes_tx_.load(std::memory_order_relaxed);
  out.bytes_received = bytes_rx_.load(std::memory_order_relaxed);
  return out;
}

std::vector<extra_link_counter> distributed_transport::extra_link_counters(
    endpoint_id ep) const {
  PX_ASSERT_MSG(ep == self_rank_,
                "link rows: remote ranks keep their own books");
  auto rows = channel_counters();
  rows.push_back({"peer_failed", peers_failed_total()});
  rows.push_back({"parcels_lost", parcels_lost_total()});
  return rows;
}

std::uint64_t distributed_transport::live_units_sent(
    std::uint64_t dead_mask) const noexcept {
  std::uint64_t sum = 0;
  for (std::size_t r = 0; r < units_to_.size(); ++r) {
    if (r == self_rank_ || ((dead_mask >> r) & 1u)) continue;
    const std::uint64_t to = units_to_[r].load();
    const std::uint64_t dropped = dropped_to_[r].load();
    sum += to > dropped ? to - dropped : 0;
  }
  return sum;
}

std::uint64_t distributed_transport::live_units_received(
    std::uint64_t dead_mask) const noexcept {
  std::uint64_t sum = 0;
  for (std::size_t r = 0; r < units_from_.size(); ++r) {
    if (r == self_rank_ || ((dead_mask >> r) & 1u)) continue;
    sum += units_from_[r].load();
  }
  return sum;
}

void distributed_transport::mark_peer_dead(std::size_t rank) noexcept {
  if (rank >= links_.size() || rank == self_rank_ || !link_open(rank)) return;
  hand_over(rank, "peer declared dead by the control plane");
}

void distributed_transport::hand_over(std::size_t rank,
                                      const char* why) noexcept {
  links_[rank].verdict.store(why, std::memory_order_release);
  pending_close_.fetch_or(1ull << rank, std::memory_order_acq_rel);
  wake();
}

void distributed_transport::note_peer_closed(std::size_t rank, bool orderly) {
  if (orderly) {
    orderly_disconnects_.fetch_add(1);
    return;
  }
  // close_peer runs once per link, so this runs once per casualty.  The
  // link is closed and its queue folded, so the books are final:
  // everything sent toward the casualty minus what we already dropped
  // actually reached the wire, and its fate died with the peer.
  const std::uint64_t to = units_sent_to(rank);
  const std::uint64_t dropped = units_dropped_to(rank);
  const std::uint64_t lost = to > dropped ? to - dropped : 0;
  parcels_lost_.fetch_add(lost);
  peers_failed_.fetch_add(1);
  unexpected_disconnects_.fetch_add(1);
  PX_LOG_WARN("net: peer rank %zu lost (%llu units lost)", rank,
              static_cast<unsigned long long>(lost));
  if (on_peer_death_) on_peer_death_(rank);
}

std::optional<std::uint32_t> whole_frame_ingest::accept(
    std::span<const std::byte> frame) {
  if (poisoned_) return std::nullopt;
  if (frame.size() > max_frame_bytes_) {
    poisoned_ = true;
    return std::nullopt;
  }
  const auto view = parcel::frame_view::parse(frame);
  if (!view.has_value()) {
    poisoned_ = true;
    return std::nullopt;
  }
  return view->count();
}

std::pair<std::string, std::uint16_t> split_host_port(const std::string& s) {
  return detail::split_host_port_impl(s);
}

}  // namespace px::net
