// Work-stealing M:N scheduler — one instance per ParalleX locality.
//
// Workers run ParalleX threads from a private Chase–Lev deque (LIFO for the
// owner, FIFO for thieves); external producers (parcel handlers on the
// network progress thread, LCO wakeups from other localities) push through a
// wait-free MPSC inject queue.
//
// Idle workers spin, then park.  A worker that runs dry first runs the idle
// hook (the parcel-port flush), then keeps polling the poll hook (network
// receive), the inject queue and the other deques for a window sized from
// its own recent idle gaps.  Every gap polls for 2 us, which catches the
// next task of a burst.  Beyond that the
// worker keeps an EWMA (alpha 1/4) of how long it sat idle before work
// showed up, and stretches the window only while that EWMA is under 50 us,
// to at most min(50 us, 2 x EWMA + 2 us).  Short request/reply gaps are
// then served without a futex wake or a halted core coming back; long gaps
// park after the 2 us floor, so the CPU burned is bounded by the gap.  The
// stretch also needs a core per busy thread (util::spin_pays over
// `host_threads`); an oversubscribed host never spins past the floor.  A
// parked worker sleeps on a condition variable with a timeout backstop.
//
// This layer is the paper's "work queue model" by which message-driven
// computing "largely circumvents idle cycles due to blocking on remote
// access delays".
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "threads/stack.hpp"
#include "threads/thread.hpp"
#include "util/histogram.hpp"
#include "util/mpsc_queue.hpp"
#include "util/spinlock.hpp"

namespace px::threads {

namespace detail {
struct worker;  // defined in scheduler.cpp
}

struct scheduler_params {
  unsigned workers = 0;  // 0 => hardware_concurrency
  std::size_t stack_bytes = 64 * 1024;
  // Busy threads on the host, these workers included, for the idle-spin
  // core-count rule; 0 => workers.  The runtime counts every locality's
  // workers: no transport thread spins.
  unsigned host_threads = 0;
  std::uint64_t seed = 1;
};

struct scheduler_stats {
  std::uint64_t spawned = 0;
  std::uint64_t completed = 0;
  std::uint64_t steals = 0;
  std::uint64_t yields = 0;
  std::uint64_t suspends = 0;
  std::uint64_t sleeps = 0;  // idle gaps that outlasted the spin and parked
};

class scheduler {
 public:
  explicit scheduler(scheduler_params params = {});
  ~scheduler();

  scheduler(const scheduler&) = delete;
  scheduler& operator=(const scheduler&) = delete;

  void start();

  // Stops workers.  Callers needing a clean shutdown quiesce first (see
  // wait_quiescent); threads still live at stop() are abandoned (their
  // stacks are reclaimed by the pools, their closures leak deliberately —
  // emergency path only).
  void stop();

  // Runs once on each worker OS thread before it enters its loop; the
  // embedding layer uses this to establish per-worker context (e.g. the
  // owning ParalleX locality).  Must be set before start().
  void set_worker_init(std::function<void(unsigned)> fn);

  // Runs on a worker each time it exhausts local work, theft, and the
  // inject queue — before it spins, and again before each park.  The
  // runtime hangs the parcel-port flush here, so coalesced parcels leave
  // the moment a locality has nothing better to do (the paper's "overlap
  // communication with computation" turned into: communicate when
  // computation runs dry).
  // Must be set before start(); must not block.
  void set_idle_hook(std::function<void()> fn);

  // Runs with `false` on each pass of a worker's spin window, and with
  // `true` when the worker leaves it.  The runtime hangs network receive
  // here; what it spawns lands on the worker's own deque.  Must be set
  // before start(); must not block.
  void set_poll_hook(std::function<void(bool)> fn);

  // Creates a ParalleX thread.  Callable from worker threads, from other
  // schedulers' workers, and from plain OS threads (e.g. main, network
  // progress).
  void spawn(std::function<void()> fn);

  // Re-queues a suspended thread.  Safe from any OS thread; the descriptor
  // must have been published via a suspend hook on this scheduler.
  void resume(thread_descriptor* td);

  // --- Calls valid only on a ParalleX thread of this scheduler ---

  // Cooperatively reschedules the calling thread to the back of its queue.
  static void yield();

  // Parks the calling thread.  `hook(td, arg)` runs on the scheduler
  // context *after* the switch completes; it is the only safe place to
  // hand `td` to a wakeup source (this two-phase protocol is what makes a
  // concurrent wake race-free).  If the hook finds the wait already
  // satisfied it may call resume(td) directly.
  static void suspend(thread_descriptor::suspend_hook hook, void* arg);

  // Descriptor of the calling ParalleX thread, or nullptr on a plain OS
  // thread.  Deliberately not inlined so the compiler cannot cache the
  // thread-local lookup across a suspension point.
  static thread_descriptor* self() noexcept;

  // True when the caller runs on one of this scheduler's workers.
  bool on_worker() const noexcept;

  // Threads spawned but not yet terminated (ready + running + suspended).
  std::uint64_t live_threads() const noexcept {
    return live_.load(std::memory_order_acquire);
  }

  // Monotonic count of spawn() calls, incremented before the new thread
  // becomes runnable.  The runtime's quiescence protocol snapshots this to
  // detect activity that raced between its counter reads.
  std::uint64_t spawn_count() const noexcept {
    return spawned_.load(std::memory_order_acquire);
  }

  // Threads queued runnable but not currently executing (deques + inject).
  // Maintained with relaxed counters around enqueue/dequeue, so the value
  // is exact up to in-flight transitions — the introspection subsystem's
  // load signal and the rebalancer's imbalance input.
  std::uint64_t ready_estimate() const noexcept {
    return ready_.load(std::memory_order_relaxed);
  }

  // Blocks the calling OS thread until live_threads() drops to zero.
  // Must not be called from a ParalleX thread of this scheduler.
  void wait_quiescent() const;

  unsigned worker_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }
  scheduler_stats stats() const;
  const scheduler_params& params() const noexcept { return params_; }

  // Telemetry distributions (populated only while PX_STATS is armed;
  // introspect/stats.hpp): per-slice fiber run time and ready→start wait
  // time, both in ns.  Registered as the runtime/loc<i>/sched/hist_*
  // histogram counters.
  util::log_histogram run_hist_snapshot() const {
    return run_hist_.snapshot();
  }
  util::log_histogram wait_hist_snapshot() const {
    return wait_hist_.snapshot();
  }

 private:
  friend struct detail::worker;

  static void thread_trampoline(void* arg);
  void worker_main(detail::worker& w);
  void run_one(detail::worker& w, thread_descriptor* td);
  thread_descriptor* find_work(detail::worker& w);
  thread_descriptor* pop_inject();
  thread_descriptor* idle(detail::worker& w);
  thread_descriptor* spin(detail::worker& w);
  void park(detail::worker& w);
  thread_descriptor* acquire_descriptor(std::function<void()> fn);
  void recycle(thread_descriptor* td);
  void enqueue(thread_descriptor* td);
  void wake_for_new_work();
  void wake_sleepers(bool all);

  scheduler_params params_;
  bool spin_ = false;  // util::spin_pays(host_threads), resolved once
  std::function<void(unsigned)> worker_init_;
  std::function<void()> idle_hook_;
  std::function<void(bool)> poll_hook_;
  std::vector<std::unique_ptr<detail::worker>> workers_;
  util::intrusive_mpsc_queue<thread_descriptor> inject_;
  util::spinlock inject_drain_lock_;  // MPSC pop is single-consumer
  stack_pool stacks_;

  util::spinlock free_lock_;
  std::vector<thread_descriptor*> free_descriptors_;

  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::int64_t notify_ns_ = 0;  // last idle_cv_ notify; under idle_mutex_
  std::atomic<unsigned> sleepers_{0};

  mutable std::mutex quiesce_mutex_;
  mutable std::condition_variable quiesce_cv_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> live_{0};
  std::atomic<std::uint64_t> ready_{0};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> spawned_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> yields_{0};
  std::atomic<std::uint64_t> suspends_{0};

  util::log_histogram run_hist_;   // internally locked
  util::log_histogram wait_hist_;  // internally locked
};

}  // namespace px::threads
