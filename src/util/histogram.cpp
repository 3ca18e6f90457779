#include "util/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>

namespace px::util {

void running_stats::add(double x, std::uint64_t weight) noexcept {
  if (weight == 0) return;
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  // Weighted Welford update: identical moments to `weight` repeated adds
  // of the same value.
  count_ += weight;
  const double delta = x - mean_;
  mean_ += delta * static_cast<double>(weight) / static_cast<double>(count_);
  m2_ += delta * (x - mean_) * static_cast<double>(weight);
}

void running_stats::merge(const running_stats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(count_);
  const auto nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double running_stats::variance() const noexcept {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double running_stats::stddev() const noexcept { return std::sqrt(variance()); }

log_histogram::log_histogram() : buckets_(kBuckets, 0) {}

log_histogram::log_histogram(const log_histogram& other) {
  std::lock_guard lock(other.lock_);
  buckets_ = other.buckets_;
  total_ = other.total_;
  stats_ = other.stats_;
}

log_histogram& log_histogram::operator=(const log_histogram& other) {
  if (this == &other) return *this;
  // Copy out under the source lock, then install under ours: never holds
  // both locks at once, so two histograms assigning to each other from
  // two threads cannot deadlock.
  log_histogram tmp(other);
  std::lock_guard lock(lock_);
  buckets_ = std::move(tmp.buckets_);
  total_ = tmp.total_;
  stats_ = tmp.stats_;
  return *this;
}

namespace {

int bucket_of(double value) noexcept {
  if (!(value > 0.0)) return 0;
  const int b = 1 + std::ilogb(value);
  return std::clamp(b, 0, 63);
}

}  // namespace

void log_histogram::add(double value, std::uint64_t weight) noexcept {
  std::lock_guard lock(lock_);
  buckets_[static_cast<std::size_t>(bucket_of(value))] += weight;
  total_ += weight;
  stats_.add(value, weight);
}

void log_histogram::merge(const log_histogram& other) noexcept {
  // Detach the source first (its lock only), then fold in under ours.
  const log_histogram src = other.snapshot();
  std::lock_guard lock(lock_);
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += src.buckets_[i];
  total_ += src.total_;
  stats_.merge(src.stats_);
}

log_histogram log_histogram::snapshot() const { return log_histogram(*this); }

std::uint64_t log_histogram::count() const noexcept {
  std::lock_guard lock(lock_);
  return total_;
}

double log_histogram::quantile_locked(double q) const noexcept {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(total_ - 1));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen > target) {
      // Bucket 0 is [0,1): dominated by literal zeros in practice (an
      // all-zero sample set must report p50 = 0, not a midpoint).
      if (i == 0) return 0.0;
      const double lo = std::ldexp(1.0, i - 1);
      return lo * 1.5;  // bucket midpoint
    }
  }
  return stats_.max();
}

double log_histogram::quantile(double q) const noexcept {
  std::lock_guard lock(lock_);
  return quantile_locked(q);
}

running_stats log_histogram::stats() const noexcept {
  std::lock_guard lock(lock_);
  return stats_;
}

}  // namespace px::util
