#include "net/membership.hpp"

#include <bit>

#include "util/assert.hpp"

namespace px::net {

membership::membership(std::uint32_t self, std::uint32_t nranks,
                       std::int64_t heartbeat_interval_ns,
                       std::int64_t lease_ns)
    : self_(self),
      nranks_(nranks),
      peers_((nranks >= 64 ? ~0ull : (1ull << nranks) - 1) & ~(1ull << self)),
      interval_ns_(heartbeat_interval_ns),
      lease_ns_(lease_ns),
      last_rx_(nranks, 0) {
  PX_ASSERT_MSG(nranks >= 1 && nranks <= 64 && self < nranks,
                "membership: the dead mask caps the machine at 64 ranks");
}

std::uint32_t membership::live_ranks() const noexcept {
  return nranks_ - static_cast<std::uint32_t>(std::popcount(dead_mask()));
}

membership::decision membership::report(std::uint32_t rank,
                                        std::uint32_t source) {
  if (closing() || rank >= nranks_ || rank == self_) return {};
  // Rank 0 is the control plane: nobody survives its loss.
  const bool survivable =
      rank != 0 && survive_.load(std::memory_order_acquire);
  const std::uint64_t bit = 1ull << rank;
  if ((dead_.fetch_or(bit, std::memory_order_acq_rel) & bit) != 0) {
    // A repeat.  In fail-fast mode its observer must exit too: the first
    // reporter may still be between its mask store and its exit, and an
    // observer sailing past a shrunk collective could beat it to a clean
    // exit code.
    return {survivable ? verdict::ignore : verdict::echo, 0};
  }
  if (!survivable) return {verdict::fatal, 0};
  const std::uint64_t audience = self_ == 0 ? peers_ : 1ull;
  return {verdict::survive, audience & ~dead_mask() & ~(1ull << source)};
}

void membership::start(std::int64_t now) {
  for (auto& t : last_rx_) t = now;
  last_tx_ = now - interval_ns_;  // the first heartbeat goes out at once
}

void membership::goodbye(std::uint32_t rank) noexcept {
  if (rank == 0) {
    (void)expect_shutdown();
  } else {
    goodbye_ |= 1ull << rank;
  }
}

std::uint64_t membership::watched() const noexcept {
  if (closing()) return 0;
  const std::uint64_t watch = self_ == 0 ? peers_ : 1ull;
  return watch & ~dead_mask() & ~goodbye_;
}

bool membership::heartbeat_due(std::int64_t now) noexcept {
  if (now - last_tx_ < interval_ns_) return false;
  last_tx_ = now;
  return true;
}

std::uint64_t membership::expired(std::int64_t now) const noexcept {
  std::uint64_t out = 0;
  for (std::uint64_t w = watched(); w != 0; w &= w - 1) {
    const auto r = static_cast<std::uint32_t>(std::countr_zero(w));
    if (now - last_rx_[r] > lease_ns_) out |= 1ull << r;
  }
  return out;
}

quiescence::verdict quiescence::decide(const std::vector<std::uint64_t>& rows,
                                       std::uint64_t dead) {
  PX_ASSERT(rows.size() == nranks_ * kFields);
  verdict v;
  const std::uint64_t root_mask = rows[4];
  // Never declare on the round that shrank the membership.
  v.shrank = dead != root_mask;
  for (std::uint32_t r = 0; r < nranks_; ++r) {
    if ((dead >> r) & 1u) continue;
    const std::uint64_t* row = rows.data() + r * kFields;
    v.stable = v.stable && row[0] == 1;
    v.sent += row[2];
    v.delivered += row[3];
    // Every survivor must have folded the same casualties into its books,
    // or the sent/delivered totals are not comparable yet.
    v.masks_agree = v.masks_agree && row[4] == root_mask;
  }
  // Two identical consecutive gathers make the earlier one a consistent
  // cut: any parcel in flight (or delivered-then-reacting) between them
  // would have moved a sent, delivered or activity counter somewhere.
  v.quiescent = v.stable && v.masks_agree && !v.shrank &&
                v.sent == v.delivered && rows == prev_;
  if (v.quiescent) {
    prev_.clear();
    rounds_ = 0;
  } else {
    prev_ = rows;
    rounds_ += 1;
    v.stuck = rounds_ % kStuckRounds == 0;
  }
  v.rounds = rounds_;
  return v;
}

}  // namespace px::net
