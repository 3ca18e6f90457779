#include "core/rebalancer.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <string>
#include <utility>

#include "core/locality.hpp"
#include "core/runtime.hpp"
#include "introspect/query.hpp"
#include "lco/lco.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"

namespace px::core {

using util::now_ns;

namespace {
// Distributed rounds cost parcel round trips, so they run this many
// intervals apart.
constexpr std::int64_t kDistIntervalMult = 16;
}  // namespace

rebalancer::rebalancer(runtime& rt, rebalancer_params params)
    : rt_(rt), params_(params) {
  if (rt_.distributed() && params_.enabled) {
    rank_depths_ =
        std::make_unique<std::atomic<std::uint64_t>[]>(rt_.num_localities());
    for (std::size_t i = 0; i < rt_.num_localities(); ++i) {
      rank_depths_[i].store(0, std::memory_order_relaxed);
    }
  }
}

void rebalancer::poll() noexcept {
  if (!params_.enabled) return;
  const std::int64_t now = now_ns();
  std::int64_t last = last_poll_ns_.load(std::memory_order_relaxed);
  auto interval_ns = static_cast<std::int64_t>(params_.interval_us) * 1000;
  if (rt_.distributed()) interval_ns *= kDistIntervalMult;
  if (now - last < interval_ns) return;
  if (!last_poll_ns_.compare_exchange_strong(last, now,
                                             std::memory_order_relaxed)) {
    return;  // a concurrent poller took this slot
  }
  if (rt_.distributed()) {
    poll_distributed();
    return;
  }
  if (!round_lock_.try_lock()) return;  // a round is still running
  rebalance_once();
  round_lock_.unlock();
}

void rebalancer::poll_distributed() {
  // A one-rank machine has nowhere to push — and with zero probes to
  // send, a claimed round latch would never be released by a reply.
  if (rt_.num_localities() < 2) return;
  // Fire only while this rank has a real backlog: an idle rank owns
  // nothing worth pushing (decisions are push-only), and the gate is what
  // lets the machine quiesce — once the backlog drains, no new round
  // fires and the termination collective can settle.
  if (rt_.here().sched().ready_estimate() < params_.min_depth) return;
  bool expected = false;
  if (!round_active_.compare_exchange_strong(expected, true)) return;
  start_round();
}

void rebalancer::release_round_slot() {
  if (round_slots_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    round_active_.store(false, std::memory_order_release);
  }
}

void rebalancer::start_round() {
  const std::size_t n = rt_.num_localities();
  const auto rank = rt_.rank();
  if (depth_counter_gids_.empty()) {
    // Counter gids replay identically in every process at boot, so the
    // path -> gid resolution is purely local even for remote ranks.
    depth_counter_gids_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = rt_.introspection().find(
          "runtime/loc" + std::to_string(i) + "/sched/ready_depth");
      PX_ASSERT_MSG(id.has_value(), "ready_depth counter missing");
      depth_counter_gids_.push_back(*id);
    }
  }

  // Observe: our own depth is a local read; every remote rank's is a
  // px.query_counter round trip whose reply lands in note_depth.  The
  // probes overlap; the last reply advances the round.
  rank_depths_[rank].store(rt_.here().sched().ready_estimate(),
                           std::memory_order_relaxed);
  probes_pending_.store(static_cast<std::uint32_t>(n - 1),
                        std::memory_order_release);
  for (std::size_t i = 0; i < n; ++i) {
    if (static_cast<gas::locality_id>(i) == rank) continue;
    introspect::query_counter_cb(
        rt_.here(), depth_counter_gids_[i],
        [this, i](std::uint64_t d) { note_depth(i, d); });
  }
}

void rebalancer::note_depth(std::size_t idx, std::uint64_t depth) {
  rank_depths_[idx].store(
      depth == introspect::no_such_counter ? 0 : depth,
      std::memory_order_relaxed);
  if (probes_pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    finish_round();
  }
}

// Decide + act: runs inline in the last probe reply's delivery, so
// everything here must stay non-blocking.
void rebalancer::finish_round() {
  const std::size_t n = rt_.num_localities();
  const auto rank = rt_.rank();
  have_samples_.store(true, std::memory_order_release);
  std::vector<std::uint64_t> depths(n);
  for (std::size_t i = 0; i < n; ++i) {
    depths[i] = rank_depths_[i].load(std::memory_order_relaxed);
  }
  // Push-only: act only when *we* are the overloaded rank (we own the hot
  // objects; every rank runs this same policy).
  const rebalance_plan plan = decide_round(depths, rank);
  if (!plan.trigger || plan.dests.empty()) {
    round_active_.store(false, std::memory_order_release);
    return;
  }

  // Act on the hottest objects.  When heat names fewer candidates than
  // the budget (a latency-bound backlog delivers too rarely for the 1-in-8
  // sampler to chart it), fall back to shedding any migratable resident:
  // on a rank this imbalanced, moving something beats moving nothing.
  std::vector<gas::gid> candidates = hot_candidates(rank);
  for (const auto id : rt_.migratable_residents(4u * params_.max_migrations)) {
    candidates.push_back(id);  // dup retries sync-reject on the claim; cheap
  }
  const std::uint32_t issued = act(candidates, rank, plan);
  if (issued > 0) {
    PX_LOG_DEBUG("rebalancer: shipping %u hot objects off rank %u "
                 "(imbalance %.2f, depth %llu)",
                 issued, rank, plan.imbalance,
                 static_cast<unsigned long long>(plan.max_depth));
  }
}

rebalance_plan rebalancer::decide(const std::vector<std::uint64_t>& depths,
                                  const rebalancer_params& params,
                                  gas::locality_id pusher) {
  rebalance_plan plan;
  if (depths.empty()) return plan;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < depths.size(); ++i) {
    total += depths[i];
    if (depths[i] > plan.max_depth) {
      plan.max_depth = depths[i];
      plan.deepest = static_cast<gas::locality_id>(i);
    }
  }
  plan.mean = static_cast<double>(total) / static_cast<double>(depths.size());
  plan.imbalance = plan.mean > 0.0
                       ? static_cast<double>(plan.max_depth) / plan.mean
                       : 0.0;
  plan.trigger = plan.max_depth >= params.min_depth &&
                 plan.imbalance >= params.threshold &&
                 (pusher == gas::invalid_locality || pusher == plan.deepest);
  if (!plan.trigger) return plan;

  // Every locality at or below the mean is an eligible destination.
  for (std::size_t i = 0; i < depths.size(); ++i) {
    const auto lid = static_cast<gas::locality_id>(i);
    if (lid == plan.deepest) continue;
    if (static_cast<double>(depths[i]) <= plan.mean) {
      plan.dests.emplace_back(depths[i], lid);
    }
  }
  std::sort(plan.dests.begin(), plan.dests.end());

  // At most the deepest queue's excess over the mean.  A hot object
  // carries about one unit of ready depth, so shedding more overshoots:
  // the next round sees the imbalance reversed and moves the objects
  // back, and the hot set ping-pongs instead of settling.
  const double excess = static_cast<double>(plan.max_depth) - plan.mean;
  plan.budget =
      std::min(params.max_migrations, static_cast<std::uint32_t>(excess));
  return plan;
}

rebalance_plan rebalancer::decide_round(
    const std::vector<std::uint64_t>& depths, gas::locality_id pusher) {
  rebalance_plan plan = decide(depths, params_, pusher);
  rounds_.fetch_add(1, std::memory_order_relaxed);
  last_imbalance_milli_.store(
      static_cast<std::uint64_t>(plan.imbalance * 1000.0),
      std::memory_order_relaxed);
  if (plan.trigger) triggers_.fetch_add(1, std::memory_order_relaxed);
  return plan;
}

std::vector<gas::gid> rebalancer::hot_candidates(gas::locality_id from) {
  // Oversampled: entries for objects that already migrated away linger
  // (cooling) in the heat table, and the handoff rejects them.
  std::vector<gas::gid> out;
  for (const auto& [id, heat] :
       rt_.at(from).hottest_objects(4u * params_.max_migrations)) {
    (void)heat;
    out.push_back(id);
  }
  return out;
}

std::uint32_t rebalancer::act(const std::vector<gas::gid>& candidates,
                               gas::locality_id from,
                               const rebalance_plan& plan) {
  // Migrations cycle across the destinations, shallowest first, so one
  // idle site does not absorb the entire hot spot (which would just move
  // the imbalance).  A rejected candidate (no longer at `from`, untagged
  // across processes, already mid-flight) burns a list slot, not migration
  // budget — and never yanks an object off the innocent locality it moved
  // to.  Each issued handoff holds one round slot until its `done` fires
  // (before migrate_gid_async returns, in-process); the sentinel keeps the
  // distributed round's latch armed until every candidate has been tried
  // (the sim round is serialized by round_lock_ instead).
  round_slots_.store(1, std::memory_order_release);  // sentinel
  std::uint32_t issued = 0;
  for (const auto id : candidates) {
    if (issued >= plan.budget) break;
    const gas::locality_id to =
        plan.dests[issued % plan.dests.size()].second;
    round_slots_.fetch_add(1, std::memory_order_relaxed);
    const bool accepted =
        rt_.migrate_gid_async(id, from, to, [this](bool ok) {
          if (ok) migrated_.fetch_add(1, std::memory_order_relaxed);
          release_round_slot();
        });
    if (accepted) {
      ++issued;
    } else {
      round_slots_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  release_round_slot();  // drop the sentinel
  return issued;
}

void rebalancer::rebalance_once() {
  const std::size_t n = rt_.num_localities();
  if (n < 2) return;

  // One snapshot of instantaneous depths feeds the whole decision: acting
  // on a stale signal would migrate objects *toward* yesterday's idle site.
  std::vector<std::uint64_t> depths(n);
  for (std::size_t i = 0; i < n; ++i) {
    depths[i] =
        rt_.at(static_cast<gas::locality_id>(i)).sched().ready_estimate();
  }
  const rebalance_plan plan = decide_round(depths, gas::invalid_locality);
  if (!plan.trigger || plan.dests.empty()) return;

  const std::uint32_t moved =
      act(hot_candidates(plan.deepest), plan.deepest, plan);
  if (moved > 0) {
    PX_LOG_DEBUG("rebalancer: moved %u hot objects off L%u "
                 "(imbalance %.2f, depth %llu)",
                 moved, plan.deepest, plan.imbalance,
                 static_cast<unsigned long long>(plan.max_depth));
  }
}

gas::locality_id rebalancer::place(
    const std::vector<gas::locality_id>& span, std::uint64_t rr) {
  PX_ASSERT_MSG(!span.empty(), "placement over an empty span");
  const gas::locality_id fallback = span[rr % span.size()];
  if (!params_.enabled || span.size() < 2) return fallback;
  // Distributed: remote depths come from the round fibers' last samples
  // (a live read would cost a parcel round trip per spawn); until a first
  // round has run there is nothing to steer by, so stay round-robin.
  const bool dist = rt_.distributed();
  if (dist && !have_samples_.load(std::memory_order_acquire)) return fallback;
  // Least-loaded placement over the span; round-robin breaks ties so a
  // balanced span degenerates to exactly the old static behaviour.  One
  // pass, one depth read per locality: re-reading the (constantly moving)
  // depths to pick among ties would race its own first scan.  Depths are
  // cached on the stack for typical spans — this runs per spawn_any, and
  // an allocator round trip per task would dwarf the fetch_add it
  // replaces.
  constexpr std::size_t kStackSpan = 64;
  std::uint64_t stack_depths[kStackSpan];
  std::vector<std::uint64_t> heap_depths;
  std::uint64_t* depths = stack_depths;
  if (span.size() > kStackSpan) {
    heap_depths.resize(span.size());
    depths = heap_depths.data();
  }
  std::uint64_t best = ~0ull;
  std::size_t ties = 0;
  for (std::size_t i = 0; i < span.size(); ++i) {
    depths[i] = dist && span[i] != rt_.rank()
                    ? rank_depths_[span[i]].load(std::memory_order_relaxed)
                    : rt_.at(span[i]).sched().ready_estimate();
    if (depths[i] < best) {
      best = depths[i];
      ties = 1;
    } else if (depths[i] == best) {
      ++ties;
    }
  }
  std::size_t pick = rr % ties;
  gas::locality_id chosen = fallback;
  for (std::size_t i = 0; i < span.size(); ++i) {
    if (depths[i] == best && pick-- == 0) {
      chosen = span[i];
      break;
    }
  }
  if (chosen != fallback) redirects_.fetch_add(1, std::memory_order_relaxed);
  return chosen;
}

rebalancer_stats rebalancer::stats() const {
  rebalancer_stats s;
  s.rounds = rounds_.load(std::memory_order_relaxed);
  s.triggers = triggers_.load(std::memory_order_relaxed);
  s.objects_migrated = migrated_.load(std::memory_order_relaxed);
  s.placement_redirects = redirects_.load(std::memory_order_relaxed);
  s.last_imbalance =
      static_cast<double>(
          last_imbalance_milli_.load(std::memory_order_relaxed)) /
      1000.0;
  return s;
}

}  // namespace px::core
