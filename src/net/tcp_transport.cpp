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

}  // namespace

tcp_transport::tcp_transport(tcp_params params)
    : distributed_transport(params.rank, params.nranks,
                            /*direct_batches=*/false),
      params_(params),
      peers_(params.nranks) {
  const auto [host, port] = split_host_port(params_.listen);
  listen_fd_ = detail::make_listener(host, port);
  detail::set_nonblocking(listen_fd_);
  listen_addr_ = detail::local_address(listen_fd_);
  PX_ASSERT_MSG(pipe(wake_fds_) == 0, "tcp_transport: pipe() failed");
  detail::set_nonblocking(wake_fds_[0]);
  detail::set_nonblocking(wake_fds_[1]);
  for (peer& p : peers_) {
    p.assembler = parcel::frame_assembler(params_.max_frame_bytes);
  }
}

void tcp_transport::connect_peers(const std::vector<std::string>& table) {
  PX_ASSERT_MSG(table.size() == params_.nranks,
                "tcp_transport: endpoint table size != nranks");

  // Dial every lower rank (their listeners are up: the bootstrap exchange
  // completed before any table was handed out) and introduce ourselves.
  for (std::uint32_t r = 0; r < params_.rank; ++r) {
    const auto [host, port] = split_host_port(table[r]);
    std::uint64_t attempts = 0;
    const int fd =
        detail::dial(host, port, params_.connect_timeout_ms, &attempts);
    PX_ASSERT_MSG(fd >= 0, "tcp_transport: cannot reach peer data endpoint");
    reconnects_.fetch_add(attempts - 1, std::memory_order_relaxed);
    std::uint8_t hello[kHelloBytes];
    detail::put_u32(hello, kHelloMagic);
    detail::put_u32(hello + 4, params_.rank);
    PX_ASSERT_MSG(detail::send_all(fd, hello, sizeof hello),
                  "tcp_transport: hello send failed");
    peers_[r].fd = fd;
  }

  // Accept every higher rank; the hello tells us who dialed in.
  std::uint32_t expected = params_.nranks - params_.rank - 1;
  std::uint64_t waited_ms = 0;
  while (expected > 0) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 100);
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
    PX_ASSERT_MSG(peers_[r].fd < 0, "tcp_transport: duplicate peer hello");
    peers_[r].fd = fd;
    expected -= 1;
  }

  for (const peer& p : peers_) {
    if (p.fd < 0) continue;
    detail::set_nodelay(p.fd);
    detail::set_nonblocking(p.fd);
  }
  PX_LOG_INFO("tcp transport up: rank %u/%u at %s", params_.rank,
              params_.nranks, listen_addr_.c_str());
  scratch_.resize(64 * 1024);
  pfds_.resize(peers_.size() + 1);
  start_progress();
}

tcp_transport::~tcp_transport() {
  stop_progress();
  for (const peer& p : peers_) {
    if (p.fd >= 0) close(p.fd);
  }
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_fds_[0] >= 0) close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) close(wake_fds_[1]);
}

distributed_transport::write_status tcp_transport::try_write(std::size_t rank,
                                                             outgoing& o) {
  const int fd = peers_[rank].fd;
  while (o.offset < o.buf.size()) {
    const ssize_t n = ::send(fd, o.buf.data() + o.offset,
                             o.buf.size() - o.offset, MSG_NOSIGNAL);
    if (n > 0) {
      o.offset += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)
                 ? write_status::blocked
                 : write_status::broken;
    }
  }
  return write_status::done;
}

bool tcp_transport::pump_in(std::size_t rank) {
  peer& p = peers_[rank];
  bool any = false;
  for (;;) {
    const ssize_t n = ::recv(p.fd, scratch_.data(), scratch_.size(), 0);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return any;
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      // EOF is normal during shutdown, a lost peer otherwise.
      close_peer(rank,
                 unless_expected(n == 0 ? "peer closed mid-run" : "recv error"));
      return true;
    }
    any = true;
    if (!p.assembler.feed(std::span<const std::byte>(
            scratch_.data(), static_cast<std::size_t>(n)))) {
      close_peer(rank, "garbage on parcel stream");
      return true;
    }
    while (auto frame = p.assembler.next_frame()) {
      const std::uint32_t units = parcel::frame_count(*frame);
      deliver(rank, std::move(*frame), units);
    }
  }
}

distributed_transport::ready_links tcp_transport::wait(bool) {
  // pfds_[r + 1] watches link r; poll(2) skips the negative fds of closed
  // links and of our own rank.
  pfds_[0] = pollfd{wake_fds_[0], POLLIN, 0};
  for (std::size_t r = 0; r < peers_.size(); ++r) {
    const bool open = link_open(r);
    const short events = open && backlogged(r) ? POLLIN | POLLOUT : POLLIN;
    pfds_[r + 1] = pollfd{open ? peers_[r].fd : -1, events, 0};
  }
  // Senders that queue while we are busy need no separate signal: the
  // wake pipe byte keeps poll from sleeping, and POLLOUT interest is
  // recomputed from the queues every pass.
  ready_links ready;
  const int rc = ::poll(pfds_.data(), pfds_.size(), kPollTimeoutMs);
  if (rc < 0) {
    PX_ASSERT_MSG(errno == EINTR, "tcp transport: poll() failed");
    return ready;
  }
  if (pfds_[0].revents & POLLIN) {
    std::uint8_t sink[256];
    while (read(wake_fds_[0], sink, sizeof sink) > 0) {
    }
  }
  for (std::size_t r = 0; r < peers_.size(); ++r) {
    const short revents = pfds_[r + 1].revents;
    if (revents & (POLLIN | POLLHUP | POLLERR)) ready.in |= 1ull << r;
    if (revents & POLLOUT) ready.out |= 1ull << r;
  }
  ready.timed_out = rc == 0;
  return ready;
}

void tcp_transport::wake() {
  const std::uint8_t byte = 1;
  // EAGAIN means a wakeup is already pending; any error is ignorable here.
  [[maybe_unused]] const ssize_t n = write(wake_fds_[1], &byte, 1);
}

void tcp_transport::close_channel(std::size_t rank) {
  close(peers_[rank].fd);
  peers_[rank].fd = -1;
}

std::vector<extra_link_counter> tcp_transport::channel_counters() const {
  return {{"reconnects", reconnects_.load(std::memory_order_relaxed)},
          {"direct_sends", direct_frames()}};
}

}  // namespace px::net
