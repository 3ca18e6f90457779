#include "net/shm_transport.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include <linux/futex.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include "net/socket_util.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace px::net {

namespace detail {

// One SPSC direction.  `tail` (producer) and `head` (consumer) are
// monotonic byte offsets on separate cache lines so the hot path never
// false-shares; `consumed_units` closes the loop for in_flight(): the
// consumer bumps it only after its handler returned.
struct shm_ring {
  alignas(64) std::atomic<std::uint64_t> tail;
  alignas(64) std::atomic<std::uint64_t> head;
  alignas(64) std::atomic<std::uint64_t> consumed_units;
  alignas(64) std::atomic<std::uint32_t> producer_closed;
  std::atomic<std::uint32_t> consumer_closed;
};

// Pair segment: header + data[2][ring_bytes].  rings[0]/data #0 carry
// lower-rank -> higher-rank traffic.
struct shm_pair_hdr {
  std::uint32_t magic;
  std::uint32_t ring_bytes;
  std::uint32_t lo_rank;
  std::uint32_t hi_rank;
  std::atomic<std::uint32_t> attached;  // opener raises; creator unlinks
  std::atomic<std::int32_t> pids[2];    // [0]=lo, [1]=hi (liveness probes)
  shm_ring rings[2];
};

// Per-rank doorbell: `seq` is the futex word every peer bumps on any event
// for this rank (new record, space freed, consumption progress, closure);
// `sleeping` is the Dekker flag that lets senders skip FUTEX_WAKE while a
// thread of this rank polls the rings.
struct shm_doorbell {
  std::uint32_t magic;
  std::atomic<std::uint32_t> seq;
  std::atomic<std::uint32_t> sleeping;
  std::atomic<std::uint32_t> attached;  // openers count in; owner unlinks
};

static_assert(std::atomic<std::uint64_t>::is_always_lock_free);
static_assert(std::atomic<std::uint32_t>::is_always_lock_free);

}  // namespace detail

namespace {

constexpr std::uint32_t kPairMagic = 0x4D535850u;      // "PXSM"
constexpr std::uint32_t kDoorbellMagic = 0x42445850u;  // "PXDB"
constexpr std::uint32_t kWrapMarker = 0xFFFFFFFFu;
constexpr std::size_t kRecHdr = 8;  // [u32 len][u32 units]

std::size_t align8(std::size_t n) { return (n + 7u) & ~std::size_t{7}; }
std::size_t align64(std::size_t n) { return (n + 63u) & ~std::size_t{63}; }

std::size_t pair_segment_bytes(std::size_t ring_bytes) {
  return align64(sizeof(detail::shm_pair_hdr)) + 2 * ring_bytes;
}

std::byte* pair_data(detail::shm_pair_hdr* h, int dir, std::size_t ring_bytes) {
  return reinterpret_cast<std::byte*>(h) +
         align64(sizeof(detail::shm_pair_hdr)) +
         static_cast<std::size_t>(dir) * ring_bytes;
}

std::string pair_name(const std::string& lo_token, std::uint32_t hi_rank) {
  return lo_token + ".p" + std::to_string(hi_rank);
}

// Unique per transport *instance* (tests run two ranks in one process).
std::string make_token(std::uint32_t rank) {
  static std::atomic<std::uint32_t> counter{0};
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  char buf[96];
  std::snprintf(buf, sizeof buf, "px.%d-%u-%u-%llx",
                static_cast<int>(::getpid()), rank,
                counter.fetch_add(1, std::memory_order_relaxed),
                static_cast<unsigned long long>(
                    ts.tv_sec * 1'000'000'000ll + ts.tv_nsec));
  return buf;
}

// Cross-process futex: no FUTEX_PRIVATE_FLAG — the word lives in a shared
// mapping.  A stale `expect` makes the kernel return EAGAIN immediately,
// which is the lost-wakeup proof for the doorbell protocol.
int futex_wait(std::atomic<std::uint32_t>* addr, std::uint32_t expect,
               std::int64_t timeout_ns) {
  timespec ts{};
  ts.tv_sec = timeout_ns / 1'000'000'000;
  ts.tv_nsec = timeout_ns % 1'000'000'000;
  return static_cast<int>(::syscall(SYS_futex, addr, FUTEX_WAIT, expect, &ts,
                                    nullptr, 0));
}

void futex_wake_one(std::atomic<std::uint32_t>* addr) {
  ::syscall(SYS_futex, addr, FUTEX_WAKE, 1, nullptr, nullptr, 0);
}

}  // namespace

shm_transport::shm_transport(shm_params params)
    : distributed_transport(params.rank, params.nranks,
                            /*direct_batches=*/true),
      params_(params),
      peers_(params.nranks) {
  PX_ASSERT_MSG(params_.ring_bytes >= 4096 && params_.ring_bytes % 8 == 0,
                "shm_transport: ring_bytes must be >= 4096 and 8-aligned");
  token_ = make_token(params_.rank);

  own_db_seg_ =
      util::shm_segment::create(token_, sizeof(detail::shm_doorbell));
  own_db_ = new (own_db_seg_.data()) detail::shm_doorbell{};
  own_db_->magic = kDoorbellMagic;

  // The lower rank of each pair creates the segment *now*, pre-exchange,
  // named after its own token — the only name peers can derive from the
  // bootstrap table.
  for (std::uint32_t r = params_.rank + 1; r < params_.nranks; ++r) {
    peer& p = peers_[r];
    p.seg = util::shm_segment::create(pair_name(token_, r),
                                      pair_segment_bytes(params_.ring_bytes));
    auto* h = new (p.seg.data()) detail::shm_pair_hdr{};
    h->magic = kPairMagic;
    h->ring_bytes = static_cast<std::uint32_t>(params_.ring_bytes);
    h->lo_rank = params_.rank;
    h->hi_rank = r;
    h->pids[0].store(static_cast<std::int32_t>(::getpid()),
                     std::memory_order_release);
    map_pair(p, h, 0);  // we are the lower rank
  }
  PX_LOG_INFO("shm transport up: rank %u/%u token %s (ring %zu B/dir)",
              params_.rank, params_.nranks, token_.c_str(),
              params_.ring_bytes);
}

void shm_transport::map_pair(peer& p, detail::shm_pair_hdr* h, int out_dir) {
  p.hdr = h;
  p.cap = h->ring_bytes;
  p.out = &h->rings[out_dir];
  p.in = &h->rings[1 - out_dir];
  p.out_data = pair_data(h, out_dir, p.cap);
  p.in_data = pair_data(h, 1 - out_dir, p.cap);
  p.ingest = whole_frame_ingest(params_.max_frame_bytes);
}

void shm_transport::connect_peers(const std::vector<std::string>& table) {
  PX_ASSERT_MSG(table.size() == static_cast<std::size_t>(params_.nranks),
                "shm connect_peers: endpoint table size mismatch");
  for (std::uint32_t r = 0; r < params_.nranks; ++r) {
    if (r == params_.rank) continue;
    peer& p = peers_[r];
    if (r < params_.rank) {
      // We are the higher rank: attach to the peer's pre-created segment
      // and raise the flag that lets it retire the name.
      p.seg = util::shm_segment::open_existing(pair_name(table[r], params_.rank),
                                               params_.connect_timeout_ms);
      auto* h = reinterpret_cast<detail::shm_pair_hdr*>(p.seg.data());
      PX_ASSERT_MSG(h->magic == kPairMagic &&
                        h->lo_rank == r && h->hi_rank == params_.rank,
                    "shm connect_peers: pair segment header mismatch");
      map_pair(p, h, 1);  // higher -> lower
      h->pids[1].store(static_cast<std::int32_t>(::getpid()),
                       std::memory_order_release);
      h->attached.store(1, std::memory_order_release);
    }
    p.db_seg =
        util::shm_segment::open_existing(table[r], params_.connect_timeout_ms);
    p.db = reinterpret_cast<detail::shm_doorbell*>(p.db_seg.data());
    PX_ASSERT_MSG(p.db->magic == kDoorbellMagic,
                  "shm connect_peers: doorbell segment header mismatch");
    p.db->attached.fetch_add(1, std::memory_order_acq_rel);
  }

  start_progress();

  // Crash-safe unlink: once every name we created has an attacher, retire
  // it — from here the segments live exactly as long as their mappings.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(params_.connect_timeout_ms);
  for (std::uint32_t r = params_.rank + 1; r < params_.nranks; ++r) {
    peer& p = peers_[r];
    while (p.hdr->attached.load(std::memory_order_acquire) == 0) {
      PX_ASSERT_MSG(std::chrono::steady_clock::now() < deadline,
                    "shm connect_peers: peer never attached pair segment");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    p.seg.unlink();
  }
  while (own_db_->attached.load(std::memory_order_acquire) !=
         params_.nranks - 1) {
    PX_ASSERT_MSG(std::chrono::steady_clock::now() < deadline,
                  "shm connect_peers: peers never attached doorbell");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  own_db_seg_.unlink();
  PX_LOG_INFO("shm transport rank %u: mesh up, segments unlinked",
              params_.rank);
}

shm_transport::~shm_transport() {
  stop_progress();
  // Announce closure on both directions of every link and wake the peers
  // so their progress threads notice without waiting for a probe.
  for (std::size_t r = 0; r < peers_.size(); ++r) {
    if (r != params_.rank) close_channel(r);
  }
  // Mappings unmap via shm_segment RAII; any name that never saw an
  // attacher (a peer crashed during boot) is unlinked there too.
}

distributed_transport::write_status shm_transport::try_write(std::size_t rank,
                                                             outgoing& o) {
  peer& p = peers_[rank];
  const std::size_t len = o.buf.size();
  const std::size_t need = align8(kRecHdr + len);
  if (need > p.cap / 2) {
    // Larger than half the ring can wedge behind the wrap marker even on
    // an empty ring; refuse loudly instead.
    PX_LOG_WARN(
        "shm send: frame of %zu bytes exceeds ring capacity %zu/2, "
        "dropping %u parcels (raise PX_SHM_RING_BYTES)",
        len, p.cap, o.units);
    return write_status::refused;
  }
  detail::shm_ring& r = *p.out;
  const std::size_t cap = p.cap;
  const std::uint64_t tail = r.tail.load(std::memory_order_relaxed);
  const std::size_t pos = static_cast<std::size_t>(tail % cap);
  const std::size_t to_end = cap - pos;
  const bool wrap = need > to_end;
  const std::size_t total = wrap ? to_end + need : need;
  if (tail + total - p.cached_head > cap) {
    p.cached_head = r.head.load(std::memory_order_acquire);
    if (tail + total - p.cached_head > cap) return write_status::blocked;
  }
  auto* base = reinterpret_cast<std::uint8_t*>(p.out_data);
  std::size_t at = pos;
  if (wrap) {
    detail::put_u32(base + at, kWrapMarker);
    at = 0;
  }
  detail::put_u32(base + at, static_cast<std::uint32_t>(len));
  detail::put_u32(base + at + 4, o.units);
  std::memcpy(base + at + kRecHdr, o.buf.data(), len);
  // Units join the in-flight books *before* the record becomes visible, so
  // the peer's consumed_units can never transiently exceed ring_units.
  p.ring_units.fetch_add(o.units, std::memory_order_relaxed);
  r.tail.store(tail + total, std::memory_order_release);
  ring_doorbell(p.db);
  return write_status::done;
}

void shm_transport::ring_doorbell(detail::shm_doorbell* db) {
  if (db == nullptr) return;
  db->seq.fetch_add(1, std::memory_order_seq_cst);
  if (db->sleeping.load(std::memory_order_seq_cst) != 0) {
    futex_wake_one(&db->seq);
    wakeups_.fetch_add(1, std::memory_order_relaxed);
  }
}

// Unconditional: the progress thread may sleep while a worker polls (the
// flag then reads 0), and a hand-over or a stop must still reach it.
void shm_transport::wake() {
  own_db_->seq.fetch_add(1, std::memory_order_seq_cst);
  futex_wake_one(&own_db_->seq);
}

bool shm_transport::has_input(std::size_t rank) const noexcept {
  const peer& p = peers_[rank];
  return p.in->tail.load(std::memory_order_acquire) !=
             p.in->head.load(std::memory_order_relaxed) ||
         p.in->producer_closed.load(std::memory_order_relaxed) != 0 ||
         p.out->consumer_closed.load(std::memory_order_relaxed) != 0;
}

void shm_transport::polled(bool any) {
  own_db_->sleeping.store(any ? 0 : 1, std::memory_order_seq_cst);
}

bool shm_transport::pump_in(std::size_t rank) {
  peer& p = peers_[rank];
  detail::shm_ring& r = *p.in;
  const std::size_t cap = p.cap;
  auto* base = reinterpret_cast<const std::uint8_t*>(p.in_data);
  std::uint64_t head = r.head.load(std::memory_order_relaxed);
  bool any = false;
  for (;;) {
    const std::uint64_t tail = r.tail.load(std::memory_order_acquire);
    if (head == tail) break;
    const std::size_t pos = static_cast<std::size_t>(head % cap);
    const std::uint32_t len = detail::get_u32(base + pos);
    if (len == kWrapMarker) {
      head += cap - pos;
      r.head.store(head, std::memory_order_release);
      continue;
    }
    const std::size_t need = align8(kRecHdr + len);
    if (need > cap - pos || head + need > tail ||
        len > params_.max_frame_bytes) {
      close_peer(rank, "corrupt record on shm ring");
      return true;
    }
    const std::uint32_t rec_units = detail::get_u32(base + pos + 4);
    auto buf = pool().acquire();
    buf.resize(len);
    std::memcpy(buf.data(), base + pos + kRecHdr, len);
    // Space frees the moment the copy lands — the producer can refill this
    // stretch while our handler is still running.
    head += need;
    r.head.store(head, std::memory_order_release);

    // Whole-frame seam: no frame_assembler — one validation pass and the
    // frame goes straight to delivery.
    const auto count = p.ingest.accept(buf);
    if (!count.has_value()) {
      pool().release(std::move(buf));
      close_peer(rank,
                 "garbage frame on shm ring (frame_view::parse rejected)");
      return true;
    }
    deliver(rank, std::move(buf), *count);
    // After the handler: this is what makes the sender's in_flight() a
    // consumed-by-peer bound, per the transport contract.
    r.consumed_units.fetch_add(rec_units, std::memory_order_release);
    any = true;
  }
  if (any) ring_doorbell(p.db);  // space freed + consumption progressed
  // The peer's closed flags: same verdict rules as a tcp EOF — orderly iff
  // disconnects were announced, otherwise a death.  A closed producer
  // side counts only once its ring is drained.
  if (r.producer_closed.load(std::memory_order_acquire) != 0 &&
      head == r.tail.load(std::memory_order_acquire)) {
    close_peer(rank, unless_expected("peer closed its producer side"));
  } else if (p.out->consumer_closed.load(std::memory_order_acquire) != 0) {
    close_peer(rank, unless_expected("peer closed its consumer side"));
  }
  return any;
}

std::uint64_t shm_transport::unconsumed_units(
    std::size_t rank) const noexcept {
  const peer& p = peers_[rank];
  const std::uint64_t rung = p.ring_units.load(std::memory_order_acquire);
  const std::uint64_t consumed =
      p.out->consumed_units.load(std::memory_order_acquire);
  return rung > consumed ? rung - consumed : 0;
}

void shm_transport::close_channel(std::size_t rank) {
  peer& p = peers_[rank];
  if (p.in != nullptr) p.in->consumer_closed.store(1, std::memory_order_release);
  if (p.out != nullptr) p.out->producer_closed.store(1, std::memory_order_release);
  ring_doorbell(p.db);
}

distributed_transport::ready_links shm_transport::wait(bool idle) {
  using clock = std::chrono::steady_clock;
  ready_links ready{~0ull, ~0ull, false};  // every link, every pass
  if (idle) {
    const auto now = clock::now();
    if (now - last_probe_ > std::chrono::milliseconds(100)) {
      last_probe_ = now;
      for (std::size_t r = 0; r < peers_.size(); ++r) {
        if (!link_open(r)) continue;
        const int slot = r > params_.rank ? 1 : 0;
        const auto pid =
            peers_[r].hdr->pids[slot].load(std::memory_order_acquire);
        if (pid != 0 && ::kill(pid, 0) == -1 && errno == ESRCH) {
          close_peer(r, "peer process died");
        }
      }
    }
    // The count is read before the pollers: a worker that stops polling
    // after that read bumps it (wake()) if it leaves work behind.
    std::uint32_t expect = own_db_->seq.load(std::memory_order_seq_cst);
    bool work = false;
    if (!workers_polling()) {
      // Dekker handoff: publish intent, re-check, then sleep.  A sender
      // that bumped seq after our load either sees `sleeping` (and wakes
      // us) or raced our re-check — in which case futex_wait returns
      // EAGAIN on the stale value.  Either way no wakeup is lost.
      expect = seq_;
      own_db_->sleeping.store(1, std::memory_order_seq_cst);
      work = own_db_->seq.load(std::memory_order_seq_cst) != seq_;
      for (std::size_t r = 0; !work && r < peers_.size(); ++r) {
        work = link_open(r) && has_input(r);
      }
    }
    if (!work) {
      const int rc = futex_wait(&own_db_->seq, expect, 1'000'000 /* 1ms */);
      ready.timed_out = rc != 0 && errno == ETIMEDOUT;
    }
    own_db_->sleeping.store(0, std::memory_order_seq_cst);
  }
  // The next pass starts from this count: any event after it rings again.
  seq_ = own_db_->seq.load(std::memory_order_acquire);
  return ready;
}

std::vector<extra_link_counter> shm_transport::channel_counters() const {
  return {{"ring_full_waits", queued_frames()},
          {"wakeups", wakeups_.load(std::memory_order_relaxed)},
          {"worker_rx", worker_frames()}};
}

}  // namespace px::net
