// Membership and quiescence as plain state machines (docs/resilience.md).
//
// Neither class owns a thread, a socket or a clock: their drivers (the
// bootstrap, and the runtime's sweep) pass in what arrived and a `now`,
// and act on what comes back, so a test can drive every protocol decision
// with hand-written event sequences.
//
// `membership` holds the machine's one dead mask.  Every detector (tcp
// EOF, shm pid probe, heartbeat EOF and lease, a control socket lost
// mid-collective, rank 0's broadcast) reports into report(), whose
// fetch_or makes the first verdict per casualty the only one.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace px::net {

class membership {
 public:
  membership(std::uint32_t self, std::uint32_t nranks,
             std::int64_t heartbeat_interval_ns, std::int64_t lease_ns);

  // Bit r set = rank r confirmed dead.  Routing reads it on every parcel.
  std::uint64_t dead_mask() const noexcept {
    return dead_.load(std::memory_order_acquire);
  }
  bool is_dead(std::uint32_t rank) const noexcept {
    return ((dead_mask() >> rank) & 1u) != 0;
  }
  std::uint32_t live_ranks() const noexcept;

  enum class verdict : std::uint8_t {
    ignore,   // shutting down, not a peer, or a repeat in survive mode
    fatal,    // the first verdict of a loss this machine cannot survive
    echo,     // a repeat of a fatal verdict: exit without a second report
    survive,  // the first verdict of a survivable loss: sweep, then tell
  };
  struct decision {
    verdict kind = verdict::ignore;
    // survive: the ranks to tell.  Rank 0 tells every other survivor, any
    // other rank tells rank 0, whose broadcast is the one gossip path.
    std::uint64_t tell = 0;
  };
  // Rank `rank` is dead, as far as `source` knows (this rank itself for a
  // local detection; the sender's rank when the news came over the wire,
  // which is then not told again).  Thread-safe.
  decision report(std::uint32_t rank, std::uint32_t source);

  // From here on, losing a rank other than 0 is survivable.
  void arm_survive() noexcept {
    survive_.store(true, std::memory_order_release);
  }
  // Orderly shutdown: every later verdict is ignored and the heartbeat
  // watch ends.  True on the first call only.
  bool expect_shutdown() noexcept {
    return !closing_.exchange(true, std::memory_order_acq_rel);
  }
  bool closing() const noexcept {
    return closing_.load(std::memory_order_acquire);
  }

  // The two halves of a casualty's repair: the transport's close folded
  // its books, and the runtime's sweep re-homed the directory.
  void note_folded(std::uint32_t rank) noexcept {
    folded_.fetch_or(1ull << rank, std::memory_order_acq_rel);
  }
  void note_swept(std::uint32_t rank) noexcept {
    swept_.fetch_or(1ull << rank, std::memory_order_acq_rel);
  }
  // Every casualty is both folded and swept: this rank's books may enter a
  // quiesce round as stable.
  bool settled() const noexcept {
    return (dead_mask() & ~(folded_.load(std::memory_order_acquire) &
                            swept_.load(std::memory_order_acquire))) == 0;
  }

  // ---- the heartbeat lease; one driver thread calls these -------------

  void start(std::int64_t now);
  // A heartbeat from `rank` renews its lease.
  void heard(std::uint32_t rank, std::int64_t now) { last_rx_[rank] = now; }
  // `rank` announced an orderly shutdown.  From rank 0 that is the whole
  // machine's; from another rank, rank 0 stops watching it.
  void goodbye(std::uint32_t rank) noexcept;
  // The ranks whose heartbeat channel this rank watches: rank 0 watches
  // every live rank that has not said goodbye, the others watch rank 0.
  std::uint64_t watched() const noexcept;
  // True once per heartbeat interval: send one to every watched rank.
  bool heartbeat_due(std::int64_t now) noexcept;
  // Watched ranks silent for longer than the lease.
  std::uint64_t expired(std::int64_t now) const noexcept;

 private:
  const std::uint32_t self_;
  const std::uint32_t nranks_;
  const std::uint64_t peers_;  // every rank but this one
  const std::int64_t interval_ns_;
  const std::int64_t lease_ns_;
  std::atomic<std::uint64_t> dead_{0};
  std::atomic<std::uint64_t> folded_{0};
  std::atomic<std::uint64_t> swept_{0};
  std::atomic<bool> survive_{false};
  std::atomic<bool> closing_{false};
  // Heartbeat thread only.
  std::uint64_t goodbye_ = 0;
  std::vector<std::int64_t> last_rx_;
  std::int64_t last_tx_ = 0;
};

// Rank 0's side of a quiesce round (Mattern-style counting termination
// detection): a pure verdict over the gathered rows, plus the previous
// round it must repeat and the count of rounds since the last verdict.
class quiescence {
 public:
  // Per-rank row: stable, activity, sent, delivered, dead mask.
  static constexpr std::size_t kFields = 5;
  // A warning every this many rounds that fail to converge.
  static constexpr std::uint64_t kStuckRounds = 4096;

  explicit quiescence(std::uint32_t nranks) : nranks_(nranks) {}

  struct verdict {
    bool quiescent = false;
    bool stable = true;       // every live rank reported stable
    bool masks_agree = true;  // every live rank reports root's dead mask
    bool shrank = false;      // a rank died while the round ran
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t rounds = 0;  // rounds without a verdict, this one too
    bool stuck = false;        // `rounds` is a multiple of kStuckRounds
  };
  // `rows`: nranks * kFields, rank-ordered, zero for ranks not gathered;
  // row 0 is rank 0's own, with the dead mask the round began with.
  // `dead`: the dead mask once the gather is done.
  verdict decide(const std::vector<std::uint64_t>& rows, std::uint64_t dead);

 private:
  const std::uint32_t nranks_;
  std::vector<std::uint64_t> prev_;
  std::uint64_t rounds_ = 0;
};

}  // namespace px::net
