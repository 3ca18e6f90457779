// Streaming statistics: running moments and a log-bucketed histogram.
//
// Used by the network layer (per-link latency), the scheduler (steal/queue
// depths), the telemetry plane (introspect/stats.hpp histogram counters),
// and every bench binary for percentile reporting without storing raw
// samples.
#pragma once

#include <cstdint>
#include <vector>

#include "util/spinlock.hpp"

namespace px::util {

// Welford running mean/variance plus min/max.
class running_stats {
 public:
  void add(double x) noexcept { add(x, 1); }
  // Weighted sample: equivalent to `weight` repeated add(x) calls (used by
  // the fabric to record one latency per coalesced parcel in O(1)).
  void add(double x, std::uint64_t weight) noexcept;
  void merge(const running_stats& other) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double mean() const noexcept { return count_ ? mean_ : 0.0; }
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }
  double sum() const noexcept { return count_ ? mean_ * count_ : 0.0; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Log2-bucketed histogram over non-negative values.  Buckets are
// [0,1), [1,2), [2,4), [4,8), ... so percentile estimates carry at most a
// factor-of-two quantization error, adequate for latency distributions
// spanning many decades.
//
// Internally synchronized: add/merge/quantile/snapshot take a short
// spinlock, so instrumentation sites on different workers can feed one
// instance and the stats sampler thread can read it concurrently.
// Copying (and snapshot(), which is the intention-revealing spelling)
// locks the source only — the copy is a plain detached value.
class log_histogram {
 public:
  log_histogram();
  log_histogram(const log_histogram& other);
  log_histogram& operator=(const log_histogram& other);

  void add(double value) noexcept { add(value, 1); }
  void add(double value, std::uint64_t weight) noexcept;
  void merge(const log_histogram& other) noexcept;

  // Consistent point-in-time copy taken under the lock; readers iterate
  // the snapshot lock-free afterwards (one lock hop per sample tick, not
  // one per quantile).
  log_histogram snapshot() const;

  std::uint64_t count() const noexcept;
  // Estimated value at quantile q in [0,1] (bucket midpoint interpolation;
  // the zero bucket [0,1) reports 0 — an all-zero distribution has p50 0,
  // not the bucket midpoint).
  double quantile(double q) const noexcept;
  double p50() const noexcept { return quantile(0.50); }
  double p95() const noexcept { return quantile(0.95); }
  double p99() const noexcept { return quantile(0.99); }
  double p999() const noexcept { return quantile(0.999); }

  // Moment accessors; taken from a locked copy so concurrent adds cannot
  // tear the Welford state mid-read.
  running_stats stats() const noexcept;

 private:
  static constexpr int kBuckets = 64;
  double quantile_locked(double q) const noexcept;

  mutable spinlock lock_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
  running_stats stats_;
};

}  // namespace px::util
