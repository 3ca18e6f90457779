#include "trace/trace.hpp"

#include <algorithm>
#include <vector>

#include "threads/scheduler.hpp"
#include "threads/thread.hpp"
#include "util/clock.hpp"
#include "util/shard_writer.hpp"

namespace px::trace {

namespace detail {

// Constant-initialized: readable from any hook before (and after) the
// recorder singleton exists, with no init-guard on the fast path.
std::atomic<bool> g_enabled{false};

// One producer (the owning OS thread), one consumer (write_sections' drain).  head_
// publishes with release so the drain's acquire load sees complete slots;
// tail_ only ever advances, so a full ring is detected with a relaxed
// read — worst case the producer sees a stale (smaller) tail and drops an
// event the drain had already freed space for, which only undercounts
// capacity, never corrupts a slot.
struct ring {
  explicit ring(std::size_t capacity, std::uint32_t id)
      : slots(capacity), id(id) {}

  std::vector<event> slots;
  std::uint32_t id;
  std::atomic<std::uint64_t> head{0};   // next write index (producer)
  std::atomic<std::uint64_t> tail{0};   // next read index (consumer)
  std::atomic<std::uint64_t> drops{0};
  ring* next = nullptr;  // registry list link (immutable after publish)
};

}  // namespace detail

namespace {

thread_local detail::ring* tl_ring = nullptr;
thread_local context tl_context;  // plain-OS-thread fallback store

}  // namespace

recorder& recorder::global() noexcept {
  static recorder r;
  return r;
}

context current() noexcept {
  if (threads::thread_descriptor* td = threads::scheduler::self()) {
    return context{td->trace_bits, td->trace_span};
  }
  return tl_context;
}

void set_current(context ctx) noexcept {
  if (threads::thread_descriptor* td = threads::scheduler::self()) {
    td->trace_bits = ctx.trace_id;
    td->trace_span = ctx.span;
    return;
  }
  tl_context = ctx;
}

void recorder::configure(bool on, std::size_t ring_bytes,
                         std::uint32_t rank) {
  // Successive runtimes in one process (the common test shape) re-arm the
  // same singleton; reset every ring so a dump never replays the previous
  // instance's events.  Rings of exited threads stay registered — their
  // thread_local owner is gone, so resetting them here is race-free.
  detail::g_enabled.store(false, std::memory_order_relaxed);
  for (detail::ring* r = rings_.load(std::memory_order_acquire); r != nullptr;
       r = r->next) {
    // Zero head and tail (not just tail = head) so events_total() — the
    // trace/events counter — restarts from 0 for the new instance.
    r->head.store(0, std::memory_order_relaxed);
    r->tail.store(0, std::memory_order_release);
    r->drops.store(0, std::memory_order_relaxed);
  }
  id_seq_.store(1, std::memory_order_relaxed);
  // Top 16 bits salt ids by rank so two ranks minting concurrently can
  // never hand out the same trace/span id machine-wide.
  id_salt_ = (static_cast<std::uint64_t>(rank) + 1) << 48;
  ring_capacity_ = std::max<std::size_t>(ring_bytes / sizeof(event), 64);
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

detail::ring* recorder::ring_for_this_thread() {
  detail::ring* r = tl_ring;
  if (r != nullptr) return r;
  r = new detail::ring(ring_capacity_,
                       ring_ids_.fetch_add(1, std::memory_order_relaxed));
  // Lock-free push-front; rings are never unregistered (a few KB per OS
  // thread that ever emitted, bounded by worker count).
  detail::ring* head = rings_.load(std::memory_order_relaxed);
  do {
    r->next = head;
  } while (!rings_.compare_exchange_weak(head, r, std::memory_order_release,
                                         std::memory_order_relaxed));
  tl_ring = r;
  return r;
}

void recorder::emit(event_kind kind, std::uint64_t trace_id,
                    std::uint64_t span, std::uint64_t parent_span,
                    std::uint64_t data, std::uint32_t arg) noexcept {
  if (!detail::g_enabled.load(std::memory_order_relaxed)) return;
  detail::ring* r = ring_for_this_thread();
  const std::uint64_t head = r->head.load(std::memory_order_relaxed);
  if (head - r->tail.load(std::memory_order_relaxed) >= r->slots.size()) {
    r->drops.fetch_add(1, std::memory_order_relaxed);  // full: never block
    return;
  }
  event& e = r->slots[head % r->slots.size()];
  e.ts_ns = util::now_ns();
  e.trace_id = trace_id;
  e.span_id = span;
  e.parent_span = parent_span;
  e.data = data;
  e.kind = static_cast<std::uint32_t>(kind);
  e.arg = arg;
  r->head.store(head + 1, std::memory_order_release);
}

std::uint64_t recorder::events_total() const noexcept {
  std::uint64_t n = 0;
  for (detail::ring* r = rings_.load(std::memory_order_acquire); r != nullptr;
       r = r->next) {
    n += r->head.load(std::memory_order_relaxed);
  }
  return n;
}

std::uint64_t recorder::drops_total() const noexcept {
  std::uint64_t n = 0;
  for (detail::ring* r = rings_.load(std::memory_order_acquire); r != nullptr;
       r = r->next) {
    n += r->drops.load(std::memory_order_relaxed);
  }
  return n;
}

void recorder::write_sections(util::shard_writer& w) {
  if (!detail::g_enabled.load(std::memory_order_relaxed)) return;
  for (detail::ring* r = rings_.load(std::memory_order_acquire); r != nullptr;
       r = r->next) {
    const std::uint64_t head = r->head.load(std::memory_order_acquire);
    std::uint64_t tail = r->tail.load(std::memory_order_relaxed);
    w.begin(util::section_kind::events);
    w.put_u32(r->id);
    w.put_u32(0);  // reserved
    // Records are LE-native in memory (see the event static_assert), so
    // slot-by-slot copies are the on-disk format directly.
    for (; tail != head; ++tail) {
      w.put_bytes(&r->slots[tail % r->slots.size()], sizeof(event));
    }
    r->tail.store(head, std::memory_order_release);
  }
}

}  // namespace px::trace
