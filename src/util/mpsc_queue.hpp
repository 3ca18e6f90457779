// Multi-producer single-consumer queues.
//
// The scheduler's inject queue (parcel handlers and remote wakeups push,
// one worker drains) and each locality's parcel port use these.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace px::util {

// Vyukov-style intrusive MPSC queue.  T must expose `std::atomic<T*> next`.
// push() is wait-free; pop() is single-consumer and may transiently observe
// an in-progress push (returns nullptr, caller retries or moves on).
template <typename T>
class intrusive_mpsc_queue {
 public:
  intrusive_mpsc_queue() : head_(&stub_), tail_(&stub_) {
    stub_.next.store(nullptr, std::memory_order_relaxed);
  }

  intrusive_mpsc_queue(const intrusive_mpsc_queue&) = delete;
  intrusive_mpsc_queue& operator=(const intrusive_mpsc_queue&) = delete;

  void push(T* node) noexcept {
    node->next.store(nullptr, std::memory_order_relaxed);
    T* prev = head_.exchange(node, std::memory_order_acq_rel);
    prev->next.store(node, std::memory_order_release);
  }

  // Single-consumer dequeue.  A nullptr return is tri-state in disguise:
  // the queue may be truly empty, or a producer may be mid-push (head_
  // already swung to the new node, predecessor's `next` not yet linked).
  // Callers that are about to *sleep* must therefore gate on
  // empty_estimate(), which stays conservatively "non-empty" through the
  // whole push window — treating this nullptr as definitive is the classic
  // lost-wakeup feeder.
  T* pop() noexcept {
    T* tail = tail_.load(std::memory_order_relaxed);
    T* next = tail->next.load(std::memory_order_acquire);
    if (tail == &stub_) {
      if (next == nullptr) return nullptr;  // empty
      tail_.store(next, std::memory_order_relaxed);
      tail = next;
      next = next->next.load(std::memory_order_acquire);
    }
    if (next != nullptr) {
      tail_.store(next, std::memory_order_relaxed);
      return tail;
    }
    T* head = head_.load(std::memory_order_acquire);
    if (tail != head) return nullptr;  // producer mid-push; try later
    push(&stub_);
    next = tail->next.load(std::memory_order_acquire);
    if (next != nullptr) {
      tail_.store(next, std::memory_order_relaxed);
      return tail;
    }
    return nullptr;
  }

  // True only when the queue is definitely empty: every pushed node has
  // been consumed (tail_ back on the stub) and no push has begun since
  // (head_ still on the stub).  A producer mid-push has already swung head_
  // to its node, so this reports "non-empty" for the entire push window.
  // That conservatism is load-bearing: it is what lets the scheduler's idle
  // path sleep safely after pop() returned nullptr.
  //
  // head_ alone is not enough.  When a push races pop()'s stub re-push
  // (the producer's exchange lands first, its `next` link not yet stored),
  // the stub ends up as head_ behind a live node that pop() just declined
  // to return; only tail_ still shows it.  Reading head_ first, with
  // acquire, orders the read of tail_ after every tail_ store that preceded
  // the stub re-push we saw, so a stub read back from tail_ means those
  // nodes were consumed.
  bool empty_estimate() const noexcept {
    return head_.load(std::memory_order_acquire) == &stub_ &&
           tail_.load(std::memory_order_relaxed) == &stub_;
  }

 private:
  std::atomic<T*> head_;
  // Written only by the consumer; atomic so empty_estimate() may read it.
  std::atomic<T*> tail_;
  // The stub is a real (default-constructed) T so it can sit in the linked
  // list; only its `next` field is ever touched.
  T stub_{};
};

// Blocking MPMC channel with closed-state; used where throughput is not
// critical (runtime control plane, CSP baseline rendezvous buffers).
template <typename T>
class blocking_queue {
 public:
  void push(T value) {
    {
      std::lock_guard lock(mutex_);
      items_.push_back(std::move(value));
    }
    cv_.notify_one();
  }

  // Blocks until an item arrives or the queue is closed and drained.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    return value;
  }

  std::optional<T> try_pop() {
    std::lock_guard lock(mutex_);
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    return value;
  }

  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace px::util
