// TCP transport: the byte channel of a full mesh of pairwise TCP
// connections between rank processes (the link engine, send queues and
// progress thread are distributed_transport's, in transport.hpp).
//
// The batch frames are self-delimiting and self-validating, so the
// stream carries them raw: the connection identifies the peer (fixed at
// the hello), and `frame_assembler` cuts whole frames out of arbitrary
// partial reads.  try_write is a nonblocking send(2) from the frame's
// offset, and a unit is in flight until its last byte reached the kernel;
// wait() is poll(2) over a self-pipe and the open sockets, with POLLOUT
// only where frames are queued.  message::batch frames are left to the
// progress thread: more traffic is likely close behind.
//
// Setup is two-phase because endpoints learn each other's addresses from
// the bootstrap exchange: construct (binds the listener, possibly on an
// ephemeral port), hand listen_address() to the bootstrap, then
// connect_peers() with the full table.  Higher ranks dial lower ones; each
// data connection opens with an 8-byte hello naming the dialer's rank.  No
// traffic may flow before connect_peers returns.
#pragma once

#include <poll.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "net/transport.hpp"
#include "parcel/parcel.hpp"

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

  // Actual bound data-plane address ("host:port"), for the bootstrap
  // endpoint table.
  std::string listen_address() const override { return listen_addr_; }

  // Establishes the full mesh from the bootstrap-exchanged table (index ==
  // rank; our own entry is ignored) and starts the progress thread.
  // Blocks until every peer link is up; asserts on timeout.
  void connect_peers(const std::vector<std::string>& table) override;

  const char* backend_name() const noexcept override { return "tcp"; }
  const tcp_params& params() const noexcept { return params_; }

 protected:
  write_status try_write(std::size_t rank, outgoing& o) override;
  bool pump_in(std::size_t rank) override;
  ready_links wait(bool idle) override;
  void wake() override;
  void close_channel(std::size_t rank) override;
  // Extra dial attempts while the mesh came up, and frames the sending
  // thread wrote into the socket itself.
  std::vector<extra_link_counter> channel_counters() const override;

 private:
  struct peer {
    int fd = -1;
    parcel::frame_assembler assembler;  // progress thread only
  };

  tcp_params params_;
  int listen_fd_ = -1;
  std::string listen_addr_;  // actual bound host:port
  int wake_fds_[2] = {-1, -1};  // self-pipe: senders kick the poll loop
  std::vector<peer> peers_;  // index == peer rank
  std::atomic<std::uint64_t> reconnects_{0};  // extra dials, all peers
  // Progress thread only: the receive buffer and the poll set.
  std::vector<std::byte> scratch_;
  std::vector<pollfd> pfds_;
};

}  // namespace px::net
