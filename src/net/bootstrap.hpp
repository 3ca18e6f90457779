// Bootstrap: the control plane that turns N processes into one machine.
//
// Rank 0 listens on a well-known address (PX_NET_ROOT); every other rank
// dials in (with retries — the launcher starts processes in any order).
// The handshake carries each rank's locality id and data-plane endpoint;
// rank 0 replies with the full endpoint table plus its resolved runtime
// parameter blob, so every process runs the wire-relevant knobs (flush
// thresholds, forward bound, eager flush) with rank 0's values even if
// their environments disagree.  A barrier gates the first parcel: nobody
// sends until everybody's data listener is connected.
//
// The control connections stay open for the life of the runtime and carry
// two more collectives:
//   * barrier() — shutdown sequencing;
//   * quiesce_round() — one round of counting termination detection
//     (Mattern-style): each rank reports (locally-stable, activity
//     snapshot, parcels sent to remote ranks, parcels delivered from
//     remote ranks).  Rank 0 declares global quiescence when every rank is
//     locally stable, the machine-wide sent and delivered totals balance,
//     and the whole gathered vector is *identical to the previous round's*
//     — two matching observations bracket any in-flight or racing parcel
//     (its delivery would have moved a counter between the rounds).
//
// All calls are collective and blocking: every rank must make the same
// sequence of bootstrap calls, in the same order (exchange, then any mix
// of quiesce_round/barrier rounds, implicitly closed by destruction).
//
// Failure detection (docs/resilience.md): exchange() additionally opens a
// second, dedicated heartbeat connection per rank.  A background thread on
// every rank exchanges kTagHb records with rank 0 at heartbeat_interval_us;
// a rank whose heartbeats stop for lease_ms (or whose channel EOFs without
// an orderly goodbye) is declared dead.  Every verdict, whoever detected
// it, goes through report_death() into the one membership core
// (net/membership.hpp).  By default any death is fatal: the observing
// process prints a diagnostic and exits nonzero within the lease — a
// partial machine must never hang.  A runtime that can survive rank loss
// arms survive mode with set_peer_down_handler(); from then on a non-root
// rank reports each verdict to rank 0 over its heartbeat connection, rank
// 0 broadcasts it to the other survivors (kTagPeerDown), collectives skip
// the casualty, and quiesce rounds carry each rank's dead mask so the
// verdict is only reached once every survivor has folded the loss into its
// books.  Rank 0's own death is always fatal to the others — it is the
// control plane.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/membership.hpp"

namespace px::net {

struct bootstrap_params {
  std::uint32_t rank = 0;
  std::uint32_t nranks = 2;
  std::string root = "127.0.0.1:7733";  // rank 0's control listen address
  std::uint64_t connect_timeout_ms = 20'000;
  // Heartbeat cadence (PX_HEARTBEAT_INTERVAL_US) and the failure lease
  // (PX_LEASE_MS): a rank silent for lease_ms is declared dead.
  std::uint64_t heartbeat_interval_us = 100'000;
  std::uint64_t lease_ms = 10'000;
};

class bootstrap {
 public:
  explicit bootstrap(bootstrap_params params);
  ~bootstrap();

  bootstrap(const bootstrap&) = delete;
  bootstrap& operator=(const bootstrap&) = delete;

  struct exchange_result {
    std::vector<std::string> endpoints;  // data-plane address per rank
    std::vector<std::byte> params_blob;  // rank 0's runtime param blob
  };

  // The handshake collective.  `my_endpoint` is this rank's data-plane
  // listen address; `root_blob` is consulted on rank 0 only and broadcast
  // to everyone.
  exchange_result exchange(const std::string& my_endpoint,
                           std::span<const std::byte> root_blob);

  // `digest`, when nonzero, is additionally verified equal across all
  // ranks (root asserts otherwise) — used by the runtime's pre-traffic
  // barrier to prove every process registered the identical boot-time
  // schema (counter gids are positional; see registry::schema_digest).
  void barrier(std::uint64_t digest = 0);

  // One round of the termination protocol described above.  Returns true
  // on every rank when the machine is globally quiescent.  Under rank
  // loss the round runs over the *live* membership: dead ranks are
  // skipped, and each rank's report carries its local dead mask — the
  // verdict requires every live rank to agree on who is dead, so the
  // machine only quiesces once the casualty is folded in everywhere.
  // Callers must already subtract the casualty from their sent/delivered
  // totals (distributed_transport::live_units_sent/received).
  bool quiesce_round(bool locally_stable, std::uint64_t activity,
                     std::uint64_t parcels_sent_remote,
                     std::uint64_t parcels_delivered_remote);

  // ---------------------------------------------------------- resilience

  // Arms survive mode: `h` is invoked once per confirmed-dead peer rank,
  // from whichever thread reported it first, to sweep the casualty out of
  // the caller's books.  Without a handler any rank loss is fatal —
  // diagnostic + _Exit(1) within the lease.  Rank 0's death is fatal
  // regardless: it is the control plane.  Call once.
  void set_peer_down_handler(std::function<void(std::uint32_t)> h);

  // The death funnel: `rank` is dead, as detected here (the data plane saw
  // its link die, or a control-plane detector fired).  The first verdict
  // per rank wins; it exits in fail-fast mode, else tells the other side
  // of the heartbeat channel and runs the peer-down handler.  Later
  // reports are no-ops.  Thread-safe.
  void report_death(std::uint32_t rank, const char* why) {
    report_death(rank, why, params_.rank);
  }

  // Announce orderly shutdown: after this, peer heartbeat EOFs and lease
  // expiries are expected and ignored.  The runtime calls it after the
  // final shutdown barrier, before tearing the machine down.
  void expect_shutdown() noexcept;

  // The machine's one dead mask, and the swept/folded state of each
  // casualty, for routing and the quiescence gate.
  membership& members() noexcept { return members_; }

  // Clock-offset collective for the flight recorder (trace/): util::now_ns
  // is a *per-process* steady epoch, so per-rank trace timestamps are
  // mutually meaningless until normalized.  Each non-root rank ping-pongs
  // rank 0 a few times (NTP-style) and keeps the minimum-RTT sample's
  // offset; returns `off` such that `local_now_ns - off` is approximately
  // rank 0's clock.  Rank 0 returns 0.  Collective: every rank must call
  // it at the same point in the bootstrap sequence.
  std::int64_t clock_sync();

  std::uint32_t rank() const noexcept { return params_.rank; }
  std::uint32_t nranks() const noexcept { return params_.nranks; }

 private:
  // Length-prefixed control records: [u32 len][u8 tag][payload].  The
  // try_ forms report a dead link; the plain forms assert it is alive.
  bool try_send_record(int fd, std::uint8_t tag,
                       std::span<const std::byte> payload);
  std::optional<std::pair<std::uint8_t, std::vector<std::byte>>>
  try_recv_record_any(int fd);
  void send_record(int fd, std::uint8_t tag,
                   std::span<const std::byte> payload);
  std::vector<std::byte> recv_record(int fd, std::uint8_t expect_tag);

  // Non-root: one request/reply with rank 0 over the control socket.
  // Losing rank 0 is fatal, so it returns empty only while shutting down.
  std::vector<std::byte> ask_root(std::uint8_t tag,
                                  std::span<const std::byte> payload,
                                  std::uint8_t reply_tag);
  // Root: wait for `tag` from rank `r`, polling in lease-bounded slices so
  // a rank that dies mid-collective is skipped instead of hanging the
  // machine.  nullopt = the rank is (now) dead.
  std::optional<std::vector<std::byte>> recv_from_live(std::uint32_t r,
                                                       std::uint8_t tag);
  // Root -> rank send that converts a failure into a death verdict.
  void send_to_live(std::uint32_t r, std::uint8_t tag,
                    std::span<const std::byte> payload);

  // report_death with the news carried by `source`'s message.
  void report_death(std::uint32_t rank, const char* why,
                    std::uint32_t source);
  // The heartbeat thread: one loop over the ranks members_ watches.
  void hb_loop();

  bootstrap_params params_;
  membership members_;
  quiescence quiescence_;         // rank 0 only
  int listen_fd_ = -1;            // rank 0 only
  // Control and heartbeat socket per peer: rank 0 holds one to every rank
  // (its own slot stays -1), every other rank only [0], to rank 0.
  std::vector<int> ctl_fds_;
  std::vector<int> hb_fds_;
  std::mutex hb_send_mutex_;      // hb sockets are written from any thread
  // Set once, before survive mode is armed; read only after a verdict saw
  // it armed.
  std::function<void(std::uint32_t)> on_peer_down_;
  std::thread hb_thread_;         // last: it uses everything above
};

}  // namespace px::net
