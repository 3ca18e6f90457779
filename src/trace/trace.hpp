// Flight recorder: low-overhead causal event tracing for the whole runtime.
//
// The counter registry (introspect/) answers "how much"; this answers
// "where did the time for *one request* go" as it hops fibers, ranks, and
// migration windows.  Every worker (and the transport progress thread, and
// the main thread) owns a bounded SPSC ring of fixed-size binary records;
// emitting is a timestamp read plus one relaxed-indexed slot write — never
// a lock, never an allocation, never blocking.  A full ring counts a drop
// and discards; the hot path cannot be back-pressured by its own
// instrumentation.
//
// Causality: a *trace id* names one logical request end to end and a *span
// id* names one hop of it.  The pair rides in fiber-local slots on
// threads::thread_descriptor (the child_scope pattern — descriptor storage,
// NOT thread_local, because a suspended fiber resumes on any worker) with a
// thread_local fallback for plain OS threads (main, transport progress).
// Crossing the wire it travels as an optional 16-byte parcel header
// extension (parcel/parcel.hpp), so sender-side parcel_send and
// receiver-side parcel_dispatch records share a (trace, span) key that
// `tools/px_telemetry.py trace` turns into Perfetto flow arrows.
//
// Always compiled in, enabled by PX_TRACE (ring size PX_TRACE_RING_BYTES);
// when disabled the per-event cost is one relaxed load and a predicted
// branch.  The recorder owns no file: runtime::dump_telemetry (at
// shutdown, or via the px.telemetry_dump action) drains the rings as
// `events` sections of the rank's telemetry shard, beside the sampler's
// series (util/shard_writer.hpp, docs/telemetry.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstddef>

namespace px::util {
class shard_writer;
}

namespace px::trace {

enum class event_kind : std::uint32_t {
  none = 0,
  fiber_spawn,      // data = new thread id           (spawner's context)
  fiber_start,      // data = thread id               (fiber's context)
  fiber_suspend,    // data = thread id
  fiber_resume,     // data = thread id
  fiber_yield,      // data = thread id
  fiber_end,        // data = thread id
  parcel_send,      // data = destination gid bits, arg = action id
  parcel_enqueue,   // data = destination endpoint,  arg = action id
  wire_tx,          // data = frame payload bytes,   arg = dest endpoint
  wire_rx,          // data = frame payload bytes,   arg = source endpoint
  parcel_dispatch,  // data = destination gid bits,  arg = action id
  lco_wait,         // data = lco address
  lco_fire,         // data = lco address
  migrate_begin,    // data = object gid bits,       arg = destination rank
  migrate_implant,  // data = object gid bits,       arg = implanting rank
  migrate_end,      // data = object gid bits,       arg = destination rank
};

// One ring slot: 48 bytes, written little-endian-native (the parcel layer
// already pins the build to LE-or-swappable hosts) so the shard file is
// parseable by `struct.unpack("<qQQQQII")` with no per-field marshalling.
struct event {
  std::int64_t ts_ns = 0;         // util::now_ns (per-process steady epoch)
  std::uint64_t trace_id = 0;     // 0 = untraced machinery
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;
  std::uint64_t data = 0;         // kind-specific payload (see enum)
  std::uint32_t kind = 0;         // event_kind
  std::uint32_t arg = 0;          // kind-specific small payload
};
static_assert(sizeof(event) == 48, "shard format pins the record size");

// The causal identity an activity runs under.
struct context {
  std::uint64_t trace_id = 0;
  std::uint64_t span = 0;
  bool valid() const noexcept { return trace_id != 0; }
};

// Current context: the running fiber's descriptor slots when on a worker,
// a thread_local otherwise.  set_current writes the same store current
// reads, so a context installed on a fiber travels with it across
// suspension/steal (and one installed on the progress thread stays there).
context current() noexcept;
void set_current(context ctx) noexcept;

// Fresh machine-wide-unique id (rank-salted counter); used for both trace
// ids (minted once at the root of a request) and span ids (one per hop).
std::uint64_t new_id() noexcept;

// Installs `ctx` for a dynamic extent and restores the previous context on
// exit — the trace twin of core::detail::child_scope.
class scope {
 public:
  explicit scope(context ctx) : saved_(current()) { set_current(ctx); }
  ~scope() { set_current(saved_); }
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

 private:
  context saved_;
};

namespace detail {
struct ring;
// The armed flag lives at namespace scope (constant-initialized, no
// function-local-static guard) so the disabled fast path in every hook
// is exactly one relaxed load + branch — recorder::global() would pay a
// thread-safe-init guard check per call, measurable at parcel rates.
extern std::atomic<bool> g_enabled;
}  // namespace detail

class recorder {
 public:
  static recorder& global() noexcept;

  // Arms (or disarms) the recorder for a runtime instance.  Resets every
  // ring and the id generator; `rank` salts new_id() so ids minted on
  // different ranks never collide.  Not thread-safe against concurrent
  // emit() — call before schedulers start.
  void configure(bool on, std::size_t ring_bytes, std::uint32_t rank);

  // Appends one record to the calling thread's ring (allocating and
  // registering the ring on first use).  No-op when disabled.
  void emit(event_kind kind, std::uint64_t trace_id, std::uint64_t span,
            std::uint64_t parent_span, std::uint64_t data,
            std::uint32_t arg) noexcept;

  // Process totals across all rings (the trace/{events,drops} counters).
  std::uint64_t events_total() const noexcept;
  std::uint64_t drops_total() const noexcept;

  // Drains each ring into its own `events` section of `w`.  Safe while
  // producers are still live (SPSC: drain only advances tails); callers
  // serialize drains.  No-op when disabled.
  void write_sections(util::shard_writer& w);

  std::uint64_t next_id() noexcept {
    return id_seq_.fetch_add(1, std::memory_order_relaxed) | id_salt_;
  }

 private:
  detail::ring* ring_for_this_thread();

  std::atomic<std::uint64_t> id_seq_{1};
  std::uint64_t id_salt_ = 0;
  std::size_t ring_capacity_ = 0;  // events per ring

  // Registry of all rings ever handed out (never shrinks; rings of dead
  // threads are drained like any other at dump time).
  std::atomic<detail::ring*> rings_{nullptr};  // lock-free push-front list
  std::atomic<std::uint32_t> ring_ids_{0};
};

inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

inline std::uint64_t new_id() noexcept {
  return recorder::global().next_id();
}

inline void emit(event_kind kind, std::uint64_t trace_id, std::uint64_t span,
                 std::uint64_t parent_span, std::uint64_t data,
                 std::uint32_t arg = 0) noexcept {
  recorder::global().emit(kind, trace_id, span, parent_span, data, arg);
}

// Emit under the calling activity's current context.
inline void emit_here(event_kind kind, std::uint64_t data,
                      std::uint32_t arg = 0) noexcept {
  const context ctx = current();
  recorder::global().emit(kind, ctx.trace_id, ctx.span, 0, data, arg);
}

}  // namespace px::trace
