// Adaptive load rebalancer: introspection counters turned into action.
//
// Paper §2.1: starvation is "idle cycles ... caused either due to
// inadequate program parallelism or due to poor load balancing"; the model
// answers with dynamic adaptive resource management.  This policy engine
// closes the loop over the introspection subsystem:
//
//   observe   per-locality instantaneous ready depths
//             (scheduler::ready_estimate, read live in-process or through
//             the sched/ready_depth counter across processes; acting on a
//             lagged signal would chase yesterday's imbalance)
//   decide    load-imbalance coefficient = max_depth / mean_depth;
//             act only when it exceeds a threshold and the deepest queue
//             is deep enough to matter (decide(), one routine for both
//             machine shapes)
//   act       (a) migrate the hottest gid-bound data objects away from the
//                 overloaded locality through runtime::migrate_gid_async,
//                 the one handoff on every shape (in-flight parcels heal
//                 through the stale-cache forwarding path), so the
//                 *message-driven work follows the objects* to idle sites;
//             (b) steer process::spawn_any placement toward the shallowest
//                 ready queues, replacing static round-robin.
//
// poll() is cheap, rate-limited, and runs opportunistically on whichever
// thread has nothing better to do: idle scheduler workers (a starved
// locality lobbies for work on its own idle cycles) and the fabric
// progress thread's idle callback (so a machine whose workers are all
// pinned busy is still rebalanced from outside).
//
// Distributed mode (PR 5): the observe/decide/act loop crosses process
// boundaries.  Sampling a remote rank's ready depth is a px.query_counter
// parcel round trip and acting is a px.migrate_object handoff, so a round
// is a *continuation chain*, never a blocking thread: poll() fires the
// probes (query_counter_cb), each reply lands on the delivery thread and
// counts down, the last one runs decide+act inline, and each issued
// migration's ack releases its slot of the round latch.  Nothing in the
// chain needs a fiber on the overloaded rank — critical, because that
// rank's workers are exactly the ones monopolized by the backlog the
// round exists to shed (a round fiber would starve behind it).
// Decisions are *push-only and symmetric*: every rank runs the same
// policy, but only the rank that observes itself deepest migrates — it
// owns the hot objects, so no cross-rank coordination (or conflict) is
// possible.  A round only fires while this rank has a real backlog
// (ready depth >= min_depth); that gate is what lets the machine quiesce
// — once the backlog drains no new round fires, so wait_quiescent's
// fixed point stays reachable.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "gas/gid.hpp"
#include "util/spinlock.hpp"

namespace px::core {

class runtime;

struct rebalancer_params {
  bool enabled = false;
  // Trigger: max ready depth / mean ready depth must exceed this...
  double threshold = 2.0;
  // ...and the deepest queue must hold at least this many ready threads
  // (rebalancing a near-idle machine is noise, not adaptation).
  std::uint32_t min_depth = 8;
  // Object migrations per rebalance round, further capped at the deepest
  // queue's excess over the mean (the next round re-evaluates, so
  // correction is incremental rather than oscillatory).
  std::uint32_t max_migrations = 4;
  // Minimum spacing between rebalance rounds.  Distributed rounds cost
  // parcel round trips, so they run 16x further apart.
  std::uint64_t interval_us = 200;
};

// One round's decision over a snapshot of per-locality ready depths.
struct rebalance_plan {
  gas::locality_id deepest = 0;  // first locality holding max_depth
  std::uint64_t max_depth = 0;
  double mean = 0.0;
  double imbalance = 0.0;  // max_depth / mean (0 on an idle machine)
  bool trigger = false;    // every gate passed: the round acts
  // Localities at or below the mean, excluding the deepest, shallowest
  // first (depth, id); filled only when the round triggers.
  std::vector<std::pair<std::uint64_t, gas::locality_id>> dests;
  std::uint32_t budget = 0;  // objects the round may shed
};

struct rebalancer_stats {
  std::uint64_t rounds = 0;             // imbalance evaluations
  std::uint64_t triggers = 0;           // rounds that exceeded threshold
  std::uint64_t objects_migrated = 0;
  std::uint64_t placement_redirects = 0;  // spawn_any steered off round-robin
  double last_imbalance = 0.0;          // most recent coefficient
};

class rebalancer {
 public:
  rebalancer(runtime& rt, rebalancer_params params);

  rebalancer(const rebalancer&) = delete;
  rebalancer& operator=(const rebalancer&) = delete;

  bool enabled() const noexcept { return params_.enabled; }
  const rebalancer_params& params() const noexcept { return params_; }

  // Evaluates imbalance and acts; rate-limited and self-serializing, so
  // safe (and cheap) to call from any thread on any idle pass.
  void poll() noexcept;

  // Placement choice for spawn_any-style calls: the span member with the
  // shallowest ready queue (ties broken round-robin by `rr`); plain
  // round-robin when disabled.
  gas::locality_id place(const std::vector<gas::locality_id>& span,
                         std::uint64_t rr);

  rebalancer_stats stats() const;

  // The decision both shapes share: the deepest locality and the
  // imbalance over `depths` (indexed by locality id), whether the round
  // triggers (min_depth, threshold and, when `pusher` is a valid id, the
  // push-only gate deepest == pusher), the destinations and the budget.
  static rebalance_plan decide(const std::vector<std::uint64_t>& depths,
                               const rebalancer_params& params,
                               gas::locality_id pusher = gas::invalid_locality);

 private:
  // decide() plus the round books (rounds, triggers, last imbalance).
  rebalance_plan decide_round(const std::vector<std::uint64_t>& depths,
                              gas::locality_id pusher);
  void rebalance_once();
  // Distributed round stages (see the class comment): gate + fire probes,
  // per-reply countdown, decide + act, latch slot release.
  void poll_distributed();
  void start_round();
  void note_depth(std::size_t idx, std::uint64_t depth);
  void finish_round();
  void release_round_slot();
  // Act, shared by both rounds: the hottest objects at `from` (heat list,
  // oversampled), and up to plan.budget handoffs of `candidates` off
  // `from` cycled across plan.dests; returns the number issued.
  std::vector<gas::gid> hot_candidates(gas::locality_id from);
  std::uint32_t act(const std::vector<gas::gid>& candidates,
                    gas::locality_id from, const rebalance_plan& plan);

  runtime& rt_;
  rebalancer_params params_;

  std::atomic<std::int64_t> last_poll_ns_{0};
  util::spinlock round_lock_;  // one rebalance round at a time

  // Distributed state: last sampled ready depth per rank (place() reads
  // them; probe replies write), the round-in-flight latch, and the two
  // countdowns pacing a round's stages.  The depth-counter gids are
  // resolved lazily inside the first round and touched only under the
  // latch, so they need no lock.
  std::unique_ptr<std::atomic<std::uint64_t>[]> rank_depths_;
  std::atomic<bool> have_samples_{false};
  std::atomic<bool> round_active_{false};
  std::atomic<std::uint32_t> probes_pending_{0};
  std::atomic<std::uint32_t> round_slots_{0};  // issued migrations + sentinel
  std::vector<gas::gid> depth_counter_gids_;

  std::atomic<std::uint64_t> rounds_{0};
  std::atomic<std::uint64_t> triggers_{0};
  std::atomic<std::uint64_t> migrated_{0};
  std::atomic<std::uint64_t> redirects_{0};
  std::atomic<std::uint64_t> last_imbalance_milli_{0};
};

}  // namespace px::core
