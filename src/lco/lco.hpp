// Local Control Objects — the ParalleX lightweight synchronization family.
//
// Paper §2.2 "Local Control Objects (LCO)": dataflow synchronization,
// futures, and metathreads replace global barriers.  An LCO owns a waiter
// list whose entries are either *depleted threads* (paper's term for a
// suspended thread's state parked in the LCO) or continuation callbacks
// (used by the parcel layer to launch a new thread when the event fires,
// and by dataflow composition).
//
// The event_base here is single-fire ("set once, then permanently ready");
// reusable LCOs (and_gate generations, semaphores, mutexes) build their own
// protocols on the same waiter machinery.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "threads/scheduler.hpp"
#include "threads/thread.hpp"
#include "util/assert.hpp"
#include "util/spinlock.hpp"

namespace px::lco {

// Global LCO event counters (the runtime/lco/* rows) and tests.
struct lco_counters {
  static std::atomic<std::uint64_t> depleted_threads_created;
  static std::atomic<std::uint64_t> continuations_attached;
  static std::atomic<std::uint64_t> fires;
};

// ------------------------------------------------------------------ event

// Single-fire event with mixed waiters.  Base of future/gate machinery.
class event_base {
 public:
  event_base() = default;
  event_base(const event_base&) = delete;
  event_base& operator=(const event_base&) = delete;

  bool ready() const noexcept {
    return fired_.load(std::memory_order_acquire);
  }

  // Blocks the caller until fired.  On a ParalleX thread this parks the
  // thread as a depleted-thread waiter (two-phase suspend, race-free);
  // on a plain OS thread it spin-sleeps (intended for main/test drivers).
  void wait();

  // Attaches a continuation; runs inline when already fired, otherwise on
  // the firing thread.  Continuations must be cheap and non-blocking —
  // heavy work belongs in a spawned thread.
  void when_ready(std::function<void()> fn);

 protected:
  // Fires the event exactly once; wakes every depleted thread and runs
  // every continuation.  Returns false when already fired.
  bool fire();

 private:
  struct waiter {
    threads::thread_descriptor* depleted = nullptr;  // xor continuation
    std::function<void()> continuation;
  };

  static void suspend_hook(threads::thread_descriptor* td, void* self);

  mutable util::spinlock lock_;
  std::atomic<bool> fired_{false};
  std::vector<waiter> waiters_;
};

// Manually fired event ("gate" in ParalleX terms).
class gate : public event_base {
 public:
  // Opens the gate; subsequent waits pass through.  Idempotent.
  void open() { fire(); }
};

// -------------------------------------------------------------- future<T>

namespace detail {

template <typename T>
class future_state : public event_base {
 public:
  void set_value(T value) {
    {
      std::lock_guard lock(value_lock_);
      PX_ASSERT_MSG(!value_.has_value(), "future set twice");
      value_ = std::move(value);
    }
    PX_ASSERT(fire());
  }

  const T& get() {
    wait();
    // After fire, value_ is immutable; no lock needed.
    return *value_;
  }

 private:
  util::spinlock value_lock_;
  std::optional<T> value_;
};

template <>
class future_state<void> : public event_base {
 public:
  void set_value() { PX_ASSERT(fire()); }
  void get() { wait(); }
};

}  // namespace detail

template <typename T>
class promise;

// Shared-state future.  Copyable (shared read side); `get` waits via the
// LCO machinery, so any number of ParalleX threads may block on one future.
template <typename T>
class future {
 public:
  future() = default;

  bool valid() const noexcept { return state_ != nullptr; }
  bool is_ready() const {
    PX_ASSERT(valid());
    return state_->ready();
  }
  void wait() const {
    PX_ASSERT(valid());
    state_->wait();
  }

  // Returns a reference to the stored value (void for future<void>).
  decltype(auto) get() const {
    PX_ASSERT(valid());
    return state_->get();
  }

  // Attaches fn() to run when the value is available.
  void on_ready(std::function<void()> fn) const {
    PX_ASSERT(valid());
    state_->when_ready(std::move(fn));
  }

 private:
  friend class promise<T>;
  explicit future(std::shared_ptr<detail::future_state<T>> s)
      : state_(std::move(s)) {}
  std::shared_ptr<detail::future_state<T>> state_;
};

template <typename T>
class promise {
 public:
  promise() : state_(std::make_shared<detail::future_state<T>>()) {}

  future<T> get_future() const { return future<T>(state_); }

  template <typename U = T>
    requires(!std::is_void_v<U>)
  void set_value(U value) {
    state_->set_value(std::move(value));
  }

  template <typename U = T>
    requires std::is_void_v<U>
  void set_value() {
    state_->set_value();
  }

 private:
  std::shared_ptr<detail::future_state<T>> state_;
};

// Convenience: an already-satisfied future.
template <typename T>
future<T> make_ready_future(T value) {
  promise<T> p;
  p.set_value(std::move(value));
  return p.get_future();
}

inline future<void> make_ready_future() {
  promise<void> p;
  p.set_value();
  return p.get_future();
}

// ---------------------------------------------------------------- and_gate

// Counting dataflow join: fires its event after `expected` signals.
// This is the static-dataflow "operand counter" LCO; dataflow() composes
// futures through it.
class and_gate : public event_base {
 public:
  explicit and_gate(std::uint64_t expected) : remaining_(expected) {
    if (expected == 0) fire();
  }

  void signal(std::uint64_t n = 1) {
    const std::uint64_t prev = remaining_.fetch_sub(n, std::memory_order_acq_rel);
    PX_ASSERT_MSG(prev >= n, "and_gate signalled more than expected");
    if (prev == n) fire();
  }

  std::uint64_t remaining() const noexcept {
    return remaining_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::uint64_t> remaining_;
};

// ---------------------------------------------------------------- dataflow

// dataflow(f, fa, fb, ...): runs f(a, b, ...) once every input future is
// ready and returns a future for the result.  Pure value-oriented flow
// control: no thread blocks; the last input to arrive executes f.
template <typename F, typename... Ts>
auto dataflow(F f, future<Ts>... inputs)
    -> future<std::invoke_result_t<F, Ts...>> {
  using R = std::invoke_result_t<F, Ts...>;
  promise<R> result;
  auto gate_ptr = std::make_shared<and_gate>(sizeof...(Ts));
  // Each input signals the gate; the gate's continuation computes.
  auto compute = [f = std::move(f), result, inputs...]() mutable {
    if constexpr (std::is_void_v<R>) {
      f(inputs.get()...);
      result.set_value();
    } else {
      result.set_value(f(inputs.get()...));
    }
  };
  gate_ptr->when_ready(std::move(compute));
  (inputs.on_ready([gate_ptr] { gate_ptr->signal(); }), ...);
  return result.get_future();
}

// when_all: future that fires when all inputs are ready.
template <typename T>
future<void> when_all(const std::vector<future<T>>& inputs) {
  promise<void> done;
  auto gate_ptr = std::make_shared<and_gate>(inputs.size());
  gate_ptr->when_ready([done]() mutable { done.set_value(); });
  for (const auto& f : inputs) {
    f.on_ready([gate_ptr] { gate_ptr->signal(); });
  }
  return done.get_future();
}

// --------------------------------------------------------------- semaphore

// Counting semaphore with FIFO handoff to depleted threads.
class counting_semaphore {
 public:
  explicit counting_semaphore(std::int64_t initial) : count_(initial) {
    PX_ASSERT(initial >= 0);
  }

  // Valid on ParalleX threads only (parks the thread when unavailable).
  void acquire();
  bool try_acquire();
  void release(std::int64_t n = 1);

  std::int64_t value() const {
    std::lock_guard lock(lock_);
    return count_;
  }

 private:
  static void sem_suspend_hook(threads::thread_descriptor* td, void* self);

  mutable util::spinlock lock_;
  std::int64_t count_;
  std::vector<threads::thread_descriptor*> waiters_;
  std::size_t next_waiter_ = 0;
};

// ------------------------------------------------------------------ mutex

// Mutual exclusion LCO: a binary semaphore with owner asserts, satisfying
// Lockable for std::lock_guard (CP.20).
class mutex {
 public:
  mutex() : sem_(1) {}
  void lock() { sem_.acquire(); }
  bool try_lock() { return sem_.try_acquire(); }
  void unlock() { sem_.release(); }

 private:
  counting_semaphore sem_;
};

// ---------------------------------------------------------------- barrier

// Sense-reversing, reusable barrier for ParalleX threads.  Provided for the
// LCO-vs-barrier experiment (LCO-1): the paper argues LCOs "eliminate most
// uses of global barriers"; this is the thing being eliminated, implemented
// over the same waiter machinery for a fair comparison.
class barrier {
 public:
  explicit barrier(std::uint64_t parties);

  // Park until all parties arrive; reusable across generations.
  void arrive_and_wait();

  std::uint64_t generation() const {
    std::lock_guard lock(lock_);
    return generation_;
  }

 private:
  static void barrier_suspend_hook(threads::thread_descriptor* td, void* self);

  mutable util::spinlock lock_;
  const std::uint64_t parties_;
  std::uint64_t arrived_ = 0;
  std::uint64_t generation_ = 0;
  std::vector<threads::thread_descriptor*> waiting_;
};

}  // namespace px::lco
