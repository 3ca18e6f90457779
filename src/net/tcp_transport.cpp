#include "net/tcp_transport.hpp"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <mutex>

#include "net/socket_util.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace px::net {

namespace {

// Data-connection hello: [u32 magic][u32 sender rank], little-endian.
constexpr std::uint32_t kHelloMagic = 0x49485850u;  // "PXHI"
constexpr std::size_t kHelloBytes = 8;

// Progress-thread poll timeout: bounds idle-callback staleness (the
// coalescing flush backstop) the same way the fabric's 200us tick does —
// poll(2) granularity is 1ms, still far below the quiescence timescale.
constexpr int kPollTimeoutMs = 1;

// Writes `buf` from byte `off` to the nonblocking `fd` until done, EAGAIN
// or an error; returns the new offset, with errno telling which when it
// falls short.
std::size_t write_from(int fd, const std::vector<std::byte>& buf,
                       std::size_t off) {
  while (off < buf.size()) {
    const ssize_t n =
        ::send(fd, buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      break;
    }
  }
  return off;
}

}  // namespace

tcp_transport::tcp_transport(tcp_params params) : params_(params) {
  PX_ASSERT(params_.nranks >= 1);
  PX_ASSERT_MSG(params_.rank < params_.nranks,
                "tcp_transport: rank out of range");
  const auto [host, port] = split_host_port(params_.listen);
  listen_fd_ = detail::make_listener(host, port);
  detail::set_nonblocking(listen_fd_);
  listen_addr_ = detail::local_address(listen_fd_);
  PX_ASSERT_MSG(pipe(wake_fds_) == 0, "tcp_transport: pipe() failed");
  detail::set_nonblocking(wake_fds_[0]);
  detail::set_nonblocking(wake_fds_[1]);
  init_peer_books(params_.nranks, params_.rank);
  for (std::uint32_t r = 0; r < params_.nranks; ++r) {
    peers_.push_back(std::make_unique<peer>());
    peers_.back()->rank = r;
    peers_.back()->assembler =
        parcel::frame_assembler(params_.max_frame_bytes);
  }
}

std::string tcp_transport::listen_address() const { return listen_addr_; }

void tcp_transport::connect_peers(const std::vector<std::string>& table) {
  PX_ASSERT_MSG(table.size() == params_.nranks,
                "tcp_transport: endpoint table size != nranks");
  PX_ASSERT_MSG(!progress_.joinable(), "tcp_transport: mesh already up");

  // Dial every lower rank (their listeners are up: the bootstrap exchange
  // completed before any table was handed out) and introduce ourselves.
  for (std::uint32_t r = 0; r < params_.rank; ++r) {
    const auto [host, port] = split_host_port(table[r]);
    std::uint64_t attempts = 0;
    const int fd =
        detail::dial(host, port, params_.connect_timeout_ms, &attempts);
    PX_ASSERT_MSG(fd >= 0, "tcp_transport: cannot reach peer data endpoint");
    peers_[r]->reconnects.store(attempts - 1, std::memory_order_relaxed);
    std::uint8_t hello[kHelloBytes];
    detail::put_u32(hello, kHelloMagic);
    detail::put_u32(hello + 4, params_.rank);
    PX_ASSERT_MSG(detail::send_all(fd, hello, sizeof hello),
                  "tcp_transport: hello send failed");
    peers_[r]->fd = fd;
  }

  // Accept every higher rank; the hello tells us who dialed in.
  std::uint32_t expected = params_.nranks - params_.rank - 1;
  std::uint64_t waited_ms = 0;
  while (expected > 0) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = poll(&pfd, 1, 100);
    if (rc == 0) {
      waited_ms += 100;
      PX_ASSERT_MSG(waited_ms < params_.connect_timeout_ms,
                    "tcp_transport: timed out waiting for peers to dial in");
      continue;
    }
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;  // spurious wakeup
    std::uint8_t hello[kHelloBytes];
    PX_ASSERT_MSG(detail::recv_all(fd, hello, sizeof hello),
                  "tcp_transport: hello recv failed");
    PX_ASSERT_MSG(detail::get_u32(hello) == kHelloMagic,
                  "tcp_transport: bad hello magic on data connection");
    const std::uint32_t r = detail::get_u32(hello + 4);
    PX_ASSERT_MSG(r > params_.rank && r < params_.nranks,
                  "tcp_transport: hello rank out of range");
    PX_ASSERT_MSG(peers_[r]->fd < 0, "tcp_transport: duplicate peer hello");
    peers_[r]->fd = fd;
    expected -= 1;
  }

  for (auto& p : peers_) {
    if (p->fd < 0) continue;
    detail::set_nodelay(p->fd);
    detail::set_nonblocking(p->fd);
    p->open = true;
  }
  PX_LOG_INFO("tcp transport up: rank %u/%u at %s", params_.rank,
              params_.nranks, listen_addr_.c_str());
  progress_ = std::thread([this] { progress_loop(); });
}

tcp_transport::~tcp_transport() {
  stopping_.store(true, std::memory_order_release);
  if (progress_.joinable()) {
    wake_progress();
    progress_.join();
  }
  for (auto& p : peers_) {
    if (p->fd >= 0) close(p->fd);
  }
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_fds_[0] >= 0) close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) close(wake_fds_[1]);
}

void tcp_transport::set_handler(endpoint_id ep, handler h) {
  PX_ASSERT_MSG(ep == params_.rank,
                "tcp_transport: only this process's rank takes a handler");
  PX_ASSERT_MSG(!traffic_started_.load(std::memory_order_acquire),
                "set_handler after traffic started");
  handler_ = std::move(h);
}

void tcp_transport::set_idle_callback(std::function<void()> cb) {
  PX_ASSERT_MSG(!traffic_started_.load(std::memory_order_acquire),
                "set_idle_callback after traffic started");
  idle_cb_ = std::move(cb);
}

void tcp_transport::send(message m) {
  PX_ASSERT_MSG(m.dest < params_.nranks, "tcp send: dest out of range");
  PX_ASSERT_MSG(m.dest != params_.rank,
                "tcp send: local delivery never touches the transport");
  PX_ASSERT_MSG(m.source == params_.rank, "tcp send: source must be us");
  PX_ASSERT(m.units >= 1);
  traffic_started_.store(true, std::memory_order_release);
  const std::uint32_t units = m.units;
  account_sent(m.dest, units);
  if (fault_drop_units(m.dest, units) > 0) {
    // Injected drop (PX_FAULT): the units retire into the conservation
    // books exactly like a dead-link drop, so quiescence still balances.
    sent_total_.fetch_add(units, std::memory_order_acq_rel);
    dropped_total_.fetch_add(units, std::memory_order_acq_rel);
    account_dropped(m.dest, units);
    pool_.release(std::move(m.payload));
    return;
  }
  sent_total_.fetch_add(units, std::memory_order_acq_rel);
  in_flight_.fetch_add(units, std::memory_order_acq_rel);
  msgs_tx_.fetch_add(1, std::memory_order_relaxed);
  parcels_tx_.fetch_add(units, std::memory_order_relaxed);
  bytes_tx_.fetch_add(m.payload.size(), std::memory_order_relaxed);

  peer& p = *peers_[m.dest];
  bool dropped = false;
  bool written = false;
  {
    std::lock_guard lock(p.send_lock);
    if (p.open && !m.batch && p.sendq.empty()) {
      // Direct write: an isolated frame with nothing queued ahead of it
      // goes into the socket from this thread, sparing the progress
      // thread's wake-up.  The lock keeps byte order (pump_sends writes
      // only while its frame is queued) and the fd alive (close_peer
      // clears `open` under it before closing).
      const std::size_t n = write_from(p.fd, m.payload, 0);
      written = n == m.payload.size();
      if (!written) {
        // Partial write, EAGAIN or error: the progress thread finishes
        // the frame or meets the same error and closes the link.
        p.sendq.push_back(outgoing{std::move(m.payload), n, units});
      }
    } else if (p.open || !progress_.joinable()) {
      // Queued before the mesh is up only in tests driving the transport
      // directly; the runtime's bootstrap barrier forbids it.
      p.sendq.push_back(outgoing{std::move(m.payload), 0, units});
    } else {
      dropped = true;
    }
  }
  if (written) {
    direct_sends_.fetch_add(1, std::memory_order_relaxed);
    pool_.release(std::move(m.payload));
    retire_in_flight(units);
    return;
  }
  if (dropped) {
    // A dead link mid-run: drop (with the drop recorded so the quiescence
    // books stay balanced) rather than wedge every drain() forever.
    dropped_total_.fetch_add(units, std::memory_order_acq_rel);
    account_dropped(m.dest, units);
    retire_in_flight(units);
    PX_LOG_WARN("tcp send: peer %u link is down, dropping %u parcels",
                m.dest, units);
    return;
  }
  wake_progress();
}

void tcp_transport::wake_progress() {
  const std::uint8_t byte = 1;
  // EAGAIN means a wakeup is already pending; any error is ignorable here.
  [[maybe_unused]] const ssize_t n = write(wake_fds_[1], &byte, 1);
}

bool tcp_transport::pump_sends(peer& p) {
  for (;;) {
    outgoing* front = nullptr;
    {
      std::lock_guard lock(p.send_lock);
      if (p.sendq.empty()) return true;
      front = &p.sendq.front();  // deque: push_back never moves the front
    }
    front->offset = write_from(p.fd, front->buf, front->offset);
    if (front->offset < front->buf.size()) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      const bool expected = stopping_.load(std::memory_order_acquire) ||
                            disconnects_expected();
      close_peer(p, expected ? nullptr : "send error");
      return false;
    }
    const std::uint32_t units = front->units;
    std::vector<std::byte> done = std::move(front->buf);
    {
      std::lock_guard lock(p.send_lock);
      p.sendq.pop_front();
    }
    pool_.release(std::move(done));
    retire_in_flight(units);
  }
}

void tcp_transport::retire_in_flight(std::uint64_t units) {
  if (in_flight_.fetch_sub(units, std::memory_order_acq_rel) == units) {
    { std::lock_guard lk(drain_mutex_); }
    drained_cv_.notify_all();
  }
}

bool tcp_transport::pump_reads(peer& p) {
  for (;;) {
    const ssize_t n = ::recv(p.fd, scratch_.data(), scratch_.size(), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      const bool expected = stopping_.load(std::memory_order_acquire) ||
                            disconnects_expected();
      close_peer(p, expected ? nullptr : "recv error");
      return false;
    }
    if (n == 0) {
      // Orderly EOF: normal during shutdown, a lost peer otherwise.
      const bool expected = stopping_.load(std::memory_order_acquire) ||
                            disconnects_expected();
      close_peer(p, expected ? nullptr : "peer closed mid-run");
      return false;
    }
    bytes_rx_.fetch_add(static_cast<std::uint64_t>(n),
                        std::memory_order_relaxed);
    if (!p.assembler.feed(std::span<const std::byte>(scratch_.data(),
                                                     static_cast<std::size_t>(
                                                         n)))) {
      close_peer(p, "garbage on parcel stream");
      return false;
    }
    while (auto frame = p.assembler.next_frame()) {
      const std::uint32_t units = parcel::frame_count(*frame);
      if (units == 0) continue;  // empty frame: nothing to deliver
      message m;
      m.source = p.rank;
      m.dest = params_.rank;
      m.units = units;
      m.payload = std::move(*frame);
      msgs_rx_.fetch_add(1, std::memory_order_relaxed);
      handler_(m);
      if (m.payload.capacity() > 0) pool_.release(std::move(m.payload));
      // Counted only after the handler returned: "delivered" in the
      // distributed quiescence books means the parcels' local effects
      // (thread spawns, counter bumps) are already visible.
      received_total_.fetch_add(units, std::memory_order_acq_rel);
      account_delivered(p.rank, units);
    }
  }
}

void tcp_transport::close_peer(peer& p, const char* why) {
  if (!p.open) return;
  if (why != nullptr) {
    PX_LOG_WARN("tcp transport rank %u: closing link to peer %u (%s)",
                params_.rank, p.rank, why);
  }
  std::uint64_t orphaned = 0;
  {
    std::lock_guard lock(p.send_lock);
    p.open = false;
    for (const outgoing& o : p.sendq) orphaned += o.units;
    p.sendq.clear();
  }
  if (orphaned > 0) {
    // Unsendable parcels must leave both the in-flight books (or drain()
    // wedges) and the quiescence sent balance (or quiesce rounds spin).
    dropped_total_.fetch_add(orphaned, std::memory_order_acq_rel);
    account_dropped(p.rank, orphaned);
    retire_in_flight(orphaned);
  }
  close(p.fd);
  p.fd = -1;
  // Shared disconnect books last, with the fold complete and no locks
  // held: an unexpected close marks the peer dead, freezes its lost-unit
  // figure, and fires the runtime's death handler.
  note_peer_closed(p.rank, why == nullptr);
}

void tcp_transport::close_link(std::size_t rank) {
  // External death verdict: every close runs on the progress thread, so
  // just flag the rank and kick the poll loop.
  pending_dead_.fetch_or(1ull << rank, std::memory_order_acq_rel);
  wake_progress();
}

void tcp_transport::progress_loop() {
  scratch_.resize(64 * 1024);
  std::vector<pollfd> pfds;
  std::vector<peer*> pfd_peers;
  for (;;) {
    if (stopping_.load(std::memory_order_acquire) &&
        in_flight_.load(std::memory_order_acquire) == 0) {
      return;  // every accepted parcel reached the kernel: graceful drain
    }
    // External death verdicts (mark_peer_dead) land here so every
    // socket close runs on the progress thread.
    if (const std::uint64_t doomed =
            pending_dead_.exchange(0, std::memory_order_acq_rel)) {
      for (std::size_t r = 0; r < peers_.size(); ++r) {
        if (((doomed >> r) & 1u) && peers_[r]->open) {
          close_peer(*peers_[r], "peer declared dead by the control plane");
        }
      }
    }
    pfds.clear();
    pfd_peers.clear();
    pfds.push_back(pollfd{wake_fds_[0], POLLIN, 0});
    pfd_peers.push_back(nullptr);
    for (auto& p : peers_) {
      if (!p->open) continue;
      short events = POLLIN;
      {
        std::lock_guard lock(p->send_lock);
        if (!p->sendq.empty()) events |= POLLOUT;
      }
      pfds.push_back(pollfd{p->fd, events, 0});
      pfd_peers.push_back(p.get());
    }
    const int rc = poll(pfds.data(), pfds.size(), kPollTimeoutMs);
    if (rc < 0) {
      PX_ASSERT_MSG(errno == EINTR, "tcp transport: poll() failed");
      continue;
    }
    if (pfds[0].revents & POLLIN) {
      std::uint8_t sink[256];
      while (read(wake_fds_[0], sink, sizeof sink) > 0) {
      }
    }
    for (std::size_t i = 1; i < pfds.size(); ++i) {
      peer* p = pfd_peers[i];
      if (!p->open) continue;  // closed by an earlier pump this pass
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        if (!pump_reads(*p)) continue;
      }
      if (pfds[i].revents & POLLOUT) pump_sends(*p);
    }
    // Senders that enqueued while we were busy need no separate signal:
    // the wake pipe byte keeps poll from sleeping, and POLLOUT interest is
    // recomputed from the queues every pass.  An idle pass (nothing
    // readable, nothing queued) runs the flush backstop.
    if (rc == 0 && idle_cb_) idle_cb_();
  }
}

void tcp_transport::drain() {
  std::unique_lock lock(drain_mutex_);
  drained_cv_.wait(lock, [&] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

endpoint_stats tcp_transport::stats(endpoint_id ep) const {
  PX_ASSERT_MSG(ep == params_.rank,
                "tcp stats: remote ranks keep their own books");
  endpoint_stats out;
  out.messages_sent = msgs_tx_.load(std::memory_order_relaxed);
  out.parcels_sent = parcels_tx_.load(std::memory_order_relaxed);
  out.messages_received = msgs_rx_.load(std::memory_order_relaxed);
  out.bytes_sent = bytes_tx_.load(std::memory_order_relaxed);
  out.bytes_received = bytes_rx_.load(std::memory_order_relaxed);
  return out;
}

link_counters tcp_transport::link(endpoint_id ep) const {
  PX_ASSERT_MSG(ep == params_.rank,
                "tcp link: remote ranks keep their own books");
  link_counters out;
  out.bytes_tx = bytes_tx_.load(std::memory_order_relaxed);
  out.bytes_rx = bytes_rx_.load(std::memory_order_relaxed);
  out.msgs_tx = msgs_tx_.load(std::memory_order_relaxed);
  out.msgs_rx = msgs_rx_.load(std::memory_order_relaxed);
  return out;
}

std::vector<extra_link_counter> tcp_transport::extra_link_counters(
    endpoint_id ep) const {
  PX_ASSERT_MSG(ep == params_.rank,
                "tcp link: remote ranks keep their own books");
  std::uint64_t reconnects = 0;
  for (const auto& p : peers_) {
    reconnects += p->reconnects.load(std::memory_order_relaxed);
  }
  return {{"reconnects", reconnects},
          {"direct_sends", direct_sends_.load(std::memory_order_relaxed)},
          {"peer_failed", peers_failed_total()},
          {"parcels_lost", parcels_lost_total()}};
}

}  // namespace px::net
