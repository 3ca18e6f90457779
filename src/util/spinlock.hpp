// Test-and-test-and-set spinlock with exponential backoff.
//
// Used for short critical sections inside the runtime (LCO state, AGAS
// directory buckets) where a futex sleep would cost more than the expected
// hold time.  Satisfies Lockable so std::lock_guard / std::scoped_lock work
// (CP.20: RAII, never plain lock/unlock).
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace px::util {

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

// The one rule behind the runtime's spin-or-sleep choice (the scheduler's
// idle spin, which is also the shm receiver's): waiting by spinning pays
// only when the host has a core for each of the `busy_threads` threads that
// may spin at once.  Oversubscribed, a spinner just steals cycles from the
// thread it is waiting for.
inline bool spin_pays(unsigned busy_threads) noexcept {
  return std::thread::hardware_concurrency() >= busy_threads;
}

// Bounded exponential backoff for contended CAS loops.
class backoff {
 public:
  void pause() noexcept {
    for (std::uint32_t i = 0; i < count_; ++i) cpu_relax();
    if (count_ < kMax) count_ *= 2;
  }
  void reset() noexcept { count_ = 1; }

 private:
  static constexpr std::uint32_t kMax = 1024;
  std::uint32_t count_ = 1;
};

class spinlock {
 public:
  spinlock() = default;
  spinlock(const spinlock&) = delete;
  spinlock& operator=(const spinlock&) = delete;

  void lock() noexcept {
    backoff bo;
    for (;;) {
      if (!locked_.exchange(true, std::memory_order_acquire)) return;
      while (locked_.load(std::memory_order_relaxed)) bo.pause();
    }
  }

  bool try_lock() noexcept {
    return !locked_.load(std::memory_order_relaxed) &&
           !locked_.exchange(true, std::memory_order_acquire);
  }

  void unlock() noexcept { locked_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> locked_{false};
};

}  // namespace px::util
