#include "threads/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>

#include "introspect/stats.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/cache.hpp"
#include "util/clock.hpp"
#include "util/fence.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/ws_deque.hpp"

namespace px::threads {

namespace detail {

struct worker {
  scheduler* sched = nullptr;
  unsigned index = 0;
  util::ws_deque<thread_descriptor*> deque;
  context sched_ctx;  // parked scheduler loop while a thread runs
  thread_descriptor* current = nullptr;
  util::xoshiro256 rng;
  // Idle-gap bookkeeping, owner only: when the current gap began (0 while
  // busy), when a producer's notify cut the last park short (0 if it did
  // not), and the EWMA of past gap lengths that sizes the spin window.
  std::int64_t idle_since_ns = 0;
  std::int64_t notified_ns = 0;
  std::int64_t gap_ewma_ns = 0;
  // Written by the owning worker, read by stats() from arbitrary threads.
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> sleeps{0};
  std::thread os_thread;
};

}  // namespace detail

namespace {

// Spin window, from the start of the gap: kMinSpinNs for every gap, about
// what a few dozen steal sweeps take, so a burst's next task is still
// caught without a park.  While the host has a core per busy thread and the
// gap EWMA is under kMaxSpinNs, it stretches to
// min(kMaxSpinNs, 2 x EWMA + kMinSpinNs).
constexpr std::int64_t kMaxSpinNs = 50'000;
constexpr std::int64_t kMinSpinNs = 2'000;

thread_local detail::worker* tl_worker = nullptr;

// Not inlined: a ParalleX thread may migrate between OS threads across a
// suspension point, so the thread-local lookup must be re-done at every
// call site rather than cached in a register by the optimizer.
__attribute__((noinline)) detail::worker* current_worker() noexcept {
  return tl_worker;
}

}  // namespace

scheduler::scheduler(scheduler_params params)
    : params_(params), stacks_(params.stack_bytes) {
  if (params_.workers == 0) {
    params_.workers = std::max(1u, std::thread::hardware_concurrency());
  }
  if (params_.host_threads == 0) params_.host_threads = params_.workers;
  spin_ = util::spin_pays(params_.host_threads);
  util::xoshiro256 seeder(params_.seed);
  for (unsigned i = 0; i < params_.workers; ++i) {
    auto w = std::make_unique<detail::worker>();
    w->sched = this;
    w->index = i;
    w->rng = seeder.split(i);
    workers_.push_back(std::move(w));
  }
}

scheduler::~scheduler() {
  if (running_.load(std::memory_order_acquire)) stop();
  std::lock_guard lock(free_lock_);
  for (auto* td : free_descriptors_) {
    if (td->stk.valid()) stacks_.deallocate(td->stk);
    delete td;
  }
}

void scheduler::start() {
  PX_ASSERT_MSG(!running_.exchange(true), "scheduler started twice");
  stop_.store(false, std::memory_order_release);
  for (auto& w : workers_) {
    w->os_thread = std::thread([this, wp = w.get()] { worker_main(*wp); });
  }
}

void scheduler::stop() {
  if (!running_.exchange(false)) return;
  stop_.store(true, std::memory_order_release);
  wake_sleepers(/*all=*/true);
  for (auto& w : workers_) {
    if (w->os_thread.joinable()) w->os_thread.join();
  }
  if (live_.load(std::memory_order_acquire) != 0) {
    PX_LOG_WARN("scheduler stopped with %llu live threads",
                static_cast<unsigned long long>(live_.load()));
  }
}

thread_descriptor* scheduler::acquire_descriptor(std::function<void()> fn) {
  thread_descriptor* td = nullptr;
  {
    std::lock_guard lock(free_lock_);
    if (!free_descriptors_.empty()) {
      td = free_descriptors_.back();
      free_descriptors_.pop_back();
    }
  }
  if (td == nullptr) {
    td = new thread_descriptor();
    td->owner = this;
    td->stk = stacks_.allocate();
  }
  td->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  td->state = thread_state::ready;
  td->ctx = context::make(td->stk.top, &thread_trampoline);
  td->entry = std::move(fn);
  td->on_suspend = nullptr;
  td->on_suspend_arg = nullptr;
  td->child_proc_bits = 0;
  td->child_edge = ~0ull;
  td->trace_bits = 0;
  td->trace_span = 0;
  td->ready_since_ns = 0;
  return td;
}

void scheduler::recycle(thread_descriptor* td) {
  td->entry = nullptr;  // release captured resources promptly
  std::lock_guard lock(free_lock_);
  free_descriptors_.push_back(td);
}

void scheduler::spawn(std::function<void()> fn) {
  thread_descriptor* td = acquire_descriptor(std::move(fn));
  if (trace::enabled()) {
    // The spawner's causal context rides into the child descriptor, so a
    // request's trace follows its whole fiber tree (the continuation-based
    // dispatch in core/action.hpp spawns through here too).
    const trace::context ctx = trace::current();
    td->trace_bits = ctx.trace_id;
    td->trace_span = ctx.span;
    trace::emit(trace::event_kind::fiber_spawn, ctx.trace_id, ctx.span, 0,
                td->id);
  }
  live_.fetch_add(1, std::memory_order_acq_rel);
  spawned_.fetch_add(1, std::memory_order_relaxed);
  enqueue(td);
}

void scheduler::resume(thread_descriptor* td) {
  PX_DEBUG_ASSERT(td->owner == this);
  if (trace::enabled()) {
    trace::emit(trace::event_kind::fiber_resume, td->trace_bits,
                td->trace_span, 0, td->id);
  }
  td->state = thread_state::ready;
  enqueue(td);
}

void scheduler::enqueue(thread_descriptor* td) {
  if (introspect::stats_armed()) td->ready_since_ns = util::now_ns();
  ready_.fetch_add(1, std::memory_order_relaxed);
  detail::worker* w = current_worker();
  if (w != nullptr && w->sched == this) {
    w->deque.push(td);
  } else {
    inject_.push(td);
  }
  wake_for_new_work();
}

// Producer half of the sleep/wake handshake.  The push above and the
// sleepers_ read below must not be reordered against the consumer's
// "increment sleepers_, then re-check the queues" sequence in park();
// the seq_cst fences on both sides make this a sound Dekker-style
// handshake: either we observe the sleeper (and notify), or the sleeper's
// re-check observes our push — a wakeup can never fall between the cracks.
// (Without the fence the relaxed sleepers_ load may be satisfied before the
// push is visible, which is the lost wakeup that wedged NestedSpawnFanOut.)
void scheduler::wake_for_new_work() {
  util::thread_fence(std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_relaxed) > 0) {
    wake_sleepers(/*all=*/false);
  }
}

void scheduler::wake_sleepers(bool all) {
  // The lock pairs with park's re-check so a wake between "found no
  // work" and "went to sleep" is never lost.
  std::lock_guard lock(idle_mutex_);
  notify_ns_ = util::now_ns();
  if (all) {
    idle_cv_.notify_all();
  } else {
    idle_cv_.notify_one();
  }
}

thread_descriptor* scheduler::pop_inject() {
  if (!inject_drain_lock_.try_lock()) return nullptr;
  thread_descriptor* td = inject_.pop();
  inject_drain_lock_.unlock();
  return td;
}

// One pass: the own deque, the inject queue, then one steal attempt on
// every other worker starting from a random victim.
thread_descriptor* scheduler::find_work(detail::worker& w) {
  if (auto local = w.deque.pop()) return *local;
  if (auto* injected = pop_inject()) return injected;
  const std::size_t n = workers_.size();
  const std::size_t first = n > 1 ? w.rng.below(n) : 0;
  for (std::size_t k = 0; k < n; ++k) {
    auto& victim = *workers_[(first + k) % n];
    if (&victim == &w) continue;
    if (auto stolen = victim.deque.steal()) {
      w.steals.fetch_add(1, std::memory_order_relaxed);
      return *stolen;
    }
  }
  return nullptr;
}

// Spin-then-park; returns work the spin found, or nullptr after a park.
thread_descriptor* scheduler::idle(detail::worker& w) {
  const bool gap_starts = w.idle_since_ns == 0;
  if (gap_starts) w.idle_since_ns = util::now_ns();
  // Flush-on-idle: give the embedding layer one shot at deferred work
  // (outbound parcel coalescing buffers) before this worker spins, so a
  // coalesced frame never waits out the spin.  Runs again before every
  // park, so even a fully-asleep locality re-drives it each timeout tick.
  if (idle_hook_) idle_hook_();
  // Only a fresh gap spins: a worker back from a park has already waited
  // longer than any window.
  if (gap_starts) {
    if (auto* td = spin(w)) return td;
    w.sleeps.fetch_add(1, std::memory_order_relaxed);
  }
  park(w);
  return nullptr;
}

thread_descriptor* scheduler::spin(detail::worker& w) {
  const bool adaptive = spin_ && w.gap_ewma_ns < kMaxSpinNs;
  const std::int64_t deadline =
      w.idle_since_ns +
      (adaptive ? std::min(kMaxSpinNs, 2 * w.gap_ewma_ns + kMinSpinNs)
                : kMinSpinNs);
  // Not in sleepers_, so producers skip the notify while this worker spins.
  // The poll runs first in a pass, so what it spawns is popped at once.
  thread_descriptor* td = nullptr;
  while (!stop_.load(std::memory_order_relaxed)) {
    if (poll_hook_) poll_hook_(false);
    if ((td = find_work(w)) != nullptr) break;
    if (util::now_ns() >= deadline) break;
    util::cpu_relax();
  }
  if (poll_hook_) poll_hook_(true);
  return td;
}

void scheduler::park(detail::worker& w) {
  w.notified_ns = 0;
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  // Consumer half of the handshake with wake_for_new_work(): the fence
  // orders "announce sleeper" before "re-check queues", pairing with the
  // producer's "push, fence, read sleepers_" so one side always sees the
  // other.
  util::thread_fence(std::memory_order_seq_cst);
  {
    std::unique_lock lock(idle_mutex_);
    // Re-check under the lock: a producer that saw sleepers_ > 0 will
    // notify while holding idle_mutex_, so this cannot miss new work.
    // Two details make the re-check sufficient:
    //  - Gate on empty_estimate(), never on a pop() having returned
    //    nullptr: the MPSC pop is tri-state (empty OR producer mid-push)
    //    while empty_estimate() stays conservatively non-empty through
    //    the whole push window — sleeping on a nullptr pop alone would
    //    re-open the lost-wakeup hole.
    //  - Scan *every* worker's deque, not just our own: a worker spawning
    //    into its own deque also notifies, and if that notify fired
    //    before we started waiting, the pushed work is visible here (the
    //    producer's push precedes its fenced sleepers_ read, which saw
    //    us).  Checking only our own deque would stall stealable work for
    //    a full timeout period.
    // The timeout is defence in depth, not the correctness mechanism.
    bool any_work = !inject_.empty_estimate();
    for (const auto& other : workers_) {
      any_work = any_work || !other->deque.empty_estimate();
    }
    if (!stop_.load(std::memory_order_acquire) && !any_work &&
        idle_cv_.wait_for(lock, std::chrono::microseconds(500)) ==
            std::cv_status::no_timeout) {
      w.notified_ns = notify_ns_;
    }
  }
  sleepers_.fetch_sub(1, std::memory_order_seq_cst);
}

void scheduler::set_worker_init(std::function<void(unsigned)> fn) {
  PX_ASSERT_MSG(!running_.load(std::memory_order_acquire),
                "set_worker_init after start");
  worker_init_ = std::move(fn);
}

void scheduler::set_idle_hook(std::function<void()> fn) {
  PX_ASSERT_MSG(!running_.load(std::memory_order_acquire),
                "set_idle_hook after start");
  idle_hook_ = std::move(fn);
}

void scheduler::set_poll_hook(std::function<void(bool)> fn) {
  PX_ASSERT_MSG(!running_.load(std::memory_order_acquire),
                "set_poll_hook after start");
  poll_hook_ = std::move(fn);
}

void scheduler::worker_main(detail::worker& w) {
  tl_worker = &w;
  if (worker_init_) worker_init_(w.index);
  while (!stop_.load(std::memory_order_acquire)) {
    thread_descriptor* td = find_work(w);
    if (td == nullptr) td = idle(w);
    if (td == nullptr) continue;
    if (w.idle_since_ns != 0) {
      // The gap ends when the work showed up: here if this worker found it,
      // at the notify if one woke it.  Counting the wake-up latency too
      // would keep a worker that once parked on gaps just under the
      // ceiling parking forever, and one that spins on them spinning.  A
      // notify from before this gap (a spurious wake-up) does not count.
      const std::int64_t end = w.notified_ns > w.idle_since_ns
                                   ? w.notified_ns
                                   : util::now_ns();
      w.gap_ewma_ns += (end - w.idle_since_ns - w.gap_ewma_ns) / 4;
      w.idle_since_ns = 0;
      w.notified_ns = 0;
    }
    ready_.fetch_sub(1, std::memory_order_relaxed);
    run_one(w, td);
  }
  tl_worker = nullptr;
}

void scheduler::run_one(detail::worker& w, thread_descriptor* td) {
  const bool tracing = trace::enabled();
  if (tracing) {
    trace::emit(trace::event_kind::fiber_start, td->trace_bits,
                td->trace_span, 0, td->id);
  }
  // Telemetry (latched here, not re-read after the swap: arming mid-slice
  // must not record a run time with no matching start stamp).
  const bool sampling = introspect::stats_armed();
  std::int64_t slice_start_ns = 0;
  if (sampling) {
    slice_start_ns = util::now_ns();
    if (td->ready_since_ns != 0) {
      const std::int64_t wait = slice_start_ns - td->ready_since_ns;
      wait_hist_.add(wait > 0 ? static_cast<double>(wait) : 0.0);
      td->ready_since_ns = 0;
    }
  }
  w.current = td;
  td->state = thread_state::running;
  context::swap(w.sched_ctx, td->ctx, td);
  // Back on the scheduler context; the thread either terminated, yielded,
  // or suspended.  After the handoff below `td` must not be touched: a
  // concurrent wake may already be running it elsewhere — so the trace
  // records in each arm are emitted before the descriptor is published
  // (recycled, hooked, or re-injected).
  w.current = nullptr;
  if (sampling) {
    run_hist_.add(static_cast<double>(util::now_ns() - slice_start_ns));
  }
  switch (td->state) {
    case thread_state::terminated: {
      if (tracing) {
        trace::emit(trace::event_kind::fiber_end, td->trace_bits,
                    td->trace_span, 0, td->id);
      }
      td->ctx.retire();  // context::make rebuilds it on descriptor reuse
      recycle(td);
      completed_.fetch_add(1, std::memory_order_relaxed);
      if (live_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard lock(quiesce_mutex_);
        quiesce_cv_.notify_all();
      }
      break;
    }
    case thread_state::suspended: {
      if (tracing) {
        trace::emit(trace::event_kind::fiber_suspend, td->trace_bits,
                    td->trace_span, 0, td->id);
      }
      suspends_.fetch_add(1, std::memory_order_relaxed);
      auto hook = td->on_suspend;
      void* arg = td->on_suspend_arg;
      td->on_suspend = nullptr;
      td->on_suspend_arg = nullptr;
      PX_ASSERT_MSG(hook != nullptr, "suspended without a hook");
      hook(td, arg);
      break;
    }
    case thread_state::ready: {  // yield
      if (tracing) {
        trace::emit(trace::event_kind::fiber_yield, td->trace_bits,
                    td->trace_span, 0, td->id);
      }
      yields_.fetch_add(1, std::memory_order_relaxed);
      ready_.fetch_add(1, std::memory_order_relaxed);
      if (sampling) td->ready_since_ns = util::now_ns();
      // FIFO inject queue, not the owner's LIFO deque: a yielded thread
      // re-pushed locally would be popped right back, starving peers.
      // Same wake handshake as enqueue(): a sibling worker drifting off to
      // sleep must either be notified or observe this push in its re-check.
      inject_.push(td);
      wake_for_new_work();
      break;
    }
    case thread_state::running:
      PX_UNREACHABLE();
  }
}

void scheduler::thread_trampoline(void* arg) {
  auto* td = static_cast<thread_descriptor*>(arg);
  try {
    td->entry();
  } catch (const std::exception& e) {
    PX_LOG_ERROR("uncaught exception in ParalleX thread %llu: %s",
                 static_cast<unsigned long long>(td->id), e.what());
    std::terminate();
  } catch (...) {
    PX_LOG_ERROR("uncaught exception in ParalleX thread %llu",
                 static_cast<unsigned long long>(td->id));
    std::terminate();
  }
  td->state = thread_state::terminated;
  detail::worker* w = current_worker();
  context::swap(td->ctx, w->sched_ctx, nullptr);
  PX_UNREACHABLE();
}

void scheduler::yield() {
  detail::worker* w = current_worker();
  PX_ASSERT_MSG(w != nullptr, "yield outside a ParalleX thread");
  thread_descriptor* td = w->current;
  td->state = thread_state::ready;
  context::swap(td->ctx, w->sched_ctx, nullptr);
}

void scheduler::suspend(thread_descriptor::suspend_hook hook, void* arg) {
  detail::worker* w = current_worker();
  PX_ASSERT_MSG(w != nullptr, "suspend outside a ParalleX thread");
  thread_descriptor* td = w->current;
  td->on_suspend = hook;
  td->on_suspend_arg = arg;
  td->state = thread_state::suspended;
  context::swap(td->ctx, w->sched_ctx, nullptr);
  // Resumed: control returns here on whichever worker woke us.
}

thread_descriptor* scheduler::self() noexcept {
  detail::worker* w = current_worker();
  return w != nullptr ? w->current : nullptr;
}

bool scheduler::on_worker() const noexcept {
  detail::worker* w = current_worker();
  return w != nullptr && w->sched == this;
}

void scheduler::wait_quiescent() const {
  PX_ASSERT_MSG(!on_worker(),
                "wait_quiescent would deadlock on a worker thread");
  std::unique_lock lock(quiesce_mutex_);
  quiesce_cv_.wait(lock, [&] {
    return live_.load(std::memory_order_acquire) == 0;
  });
}

scheduler_stats scheduler::stats() const {
  scheduler_stats s;
  s.spawned = spawned_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.yields = yields_.load(std::memory_order_relaxed);
  s.suspends = suspends_.load(std::memory_order_relaxed);
  for (const auto& w : workers_) {
    s.steals += w->steals.load(std::memory_order_relaxed);
    s.sleeps += w->sleeps.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace px::threads
