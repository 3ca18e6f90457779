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
// `sleeping` is the Dekker flag that lets senders skip FUTEX_WAKE while
// the receiver is spinning.
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

shm_transport::shm_transport(shm_params params) : params_(params) {
  PX_ASSERT_MSG(params_.nranks >= 1 && params_.rank < params_.nranks,
                "shm_transport: rank out of range");
  PX_ASSERT_MSG(params_.ring_bytes >= 4096 && params_.ring_bytes % 8 == 0,
                "shm_transport: ring_bytes must be >= 4096 and 8-aligned");
  token_ = make_token(params_.rank);
  init_peer_books(params_.nranks, params_.rank);

  own_db_seg_ =
      util::shm_segment::create(token_, sizeof(detail::shm_doorbell));
  own_db_ = new (own_db_seg_.data()) detail::shm_doorbell{};
  own_db_->magic = kDoorbellMagic;

  peers_.resize(params_.nranks);
  for (std::uint32_t r = 0; r < params_.nranks; ++r) {
    peers_[r] = std::make_unique<peer>();
    peers_[r]->rank = r;
  }
  // The lower rank of each pair creates the segment *now*, pre-exchange,
  // named after its own token — the only name peers can derive from the
  // bootstrap table.
  for (std::uint32_t r = params_.rank + 1; r < params_.nranks; ++r) {
    peer& p = *peers_[r];
    p.seg = util::shm_segment::create(pair_name(token_, r),
                                      pair_segment_bytes(params_.ring_bytes));
    auto* h = new (p.seg.data()) detail::shm_pair_hdr{};
    h->magic = kPairMagic;
    h->ring_bytes = static_cast<std::uint32_t>(params_.ring_bytes);
    h->lo_rank = params_.rank;
    h->hi_rank = r;
    h->pids[0].store(static_cast<std::int32_t>(::getpid()),
                     std::memory_order_release);
    p.hdr = h;
    p.cap = params_.ring_bytes;
    p.out = &h->rings[0];  // we are the lower rank
    p.in = &h->rings[1];
    p.out_data = pair_data(h, 0, p.cap);
    p.in_data = pair_data(h, 1, p.cap);
    p.ingest = whole_frame_ingest(params_.max_frame_bytes);
  }
  PX_LOG_INFO("shm transport up: rank %u/%u token %s (ring %zu B/dir)",
              params_.rank, params_.nranks, token_.c_str(),
              params_.ring_bytes);
}

std::string shm_transport::listen_address() const { return token_; }

void shm_transport::connect_peers(const std::vector<std::string>& table) {
  PX_ASSERT_MSG(table.size() == static_cast<std::size_t>(params_.nranks),
                "shm connect_peers: endpoint table size mismatch");
  for (std::uint32_t r = 0; r < params_.nranks; ++r) {
    if (r == params_.rank) continue;
    peer& p = *peers_[r];
    if (r < params_.rank) {
      // We are the higher rank: attach to the peer's pre-created segment
      // and raise the flag that lets it retire the name.
      p.seg = util::shm_segment::open_existing(pair_name(table[r], params_.rank),
                                               params_.connect_timeout_ms);
      auto* h = reinterpret_cast<detail::shm_pair_hdr*>(p.seg.data());
      PX_ASSERT_MSG(h->magic == kPairMagic &&
                        h->lo_rank == r && h->hi_rank == params_.rank,
                    "shm connect_peers: pair segment header mismatch");
      p.hdr = h;
      p.cap = h->ring_bytes;
      p.out = &h->rings[1];  // higher -> lower
      p.in = &h->rings[0];
      p.out_data = pair_data(h, 1, p.cap);
      p.in_data = pair_data(h, 0, p.cap);
      p.ingest = whole_frame_ingest(params_.max_frame_bytes);
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
    p.open.store(true, std::memory_order_release);
  }

  progress_ = std::thread([this] { progress_loop(); });

  // Crash-safe unlink: once every name we created has an attacher, retire
  // it — from here the segments live exactly as long as their mappings.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(params_.connect_timeout_ms);
  for (std::uint32_t r = params_.rank + 1; r < params_.nranks; ++r) {
    peer& p = *peers_[r];
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
  stopping_.store(true, std::memory_order_release);
  if (progress_.joinable()) {
    own_db_->seq.fetch_add(1, std::memory_order_seq_cst);
    futex_wake_one(&own_db_->seq);
    progress_.join();
  }
  // Announce closure on both directions of every link and wake the peers
  // so their progress threads notice without waiting for a probe.
  for (auto& pp : peers_) {
    if (pp == nullptr || pp->rank == params_.rank) continue;
    peer& p = *pp;
    if (p.out != nullptr) p.out->producer_closed.store(1, std::memory_order_release);
    if (p.in != nullptr) p.in->consumer_closed.store(1, std::memory_order_release);
    if (p.db != nullptr) ring_doorbell(p);
  }
  // Mappings unmap via shm_segment RAII; any name that never saw an
  // attacher (a peer crashed during boot) is unlinked there too.
}

void shm_transport::set_handler(endpoint_id ep, handler h) {
  PX_ASSERT_MSG(ep == params_.rank,
                "shm transport: only the local rank takes a handler");
  PX_ASSERT_MSG(!traffic_started_.load(std::memory_order_acquire),
                "shm transport: handler registration after traffic started");
  handler_ = std::move(h);
}

void shm_transport::set_idle_callback(std::function<void()> cb) {
  PX_ASSERT_MSG(!traffic_started_.load(std::memory_order_acquire),
                "shm transport: idle callback set after traffic started");
  idle_cb_ = std::move(cb);
}

bool shm_transport::ring_write(peer& p, const std::byte* data,
                               std::size_t len, std::uint32_t units) {
  detail::shm_ring& r = *p.out;
  const std::size_t cap = p.cap;
  const std::uint64_t tail = r.tail.load(std::memory_order_relaxed);
  const std::size_t need = align8(kRecHdr + len);
  const std::size_t pos = static_cast<std::size_t>(tail % cap);
  const std::size_t to_end = cap - pos;
  const bool wrap = need > to_end;
  const std::size_t total = wrap ? to_end + need : need;
  if (tail + total - p.cached_head > cap) {
    p.cached_head = r.head.load(std::memory_order_acquire);
    if (tail + total - p.cached_head > cap) return false;
  }
  auto* base = reinterpret_cast<std::uint8_t*>(p.out_data);
  std::size_t at = pos;
  if (wrap) {
    detail::put_u32(base + at, kWrapMarker);
    at = 0;
  }
  detail::put_u32(base + at, static_cast<std::uint32_t>(len));
  detail::put_u32(base + at + 4, units);
  std::memcpy(base + at + kRecHdr, data, len);
  // Units join the in-flight books *before* the record becomes visible, so
  // the peer's consumed_units can never transiently exceed ring_units.
  p.ring_units.fetch_add(units, std::memory_order_relaxed);
  r.tail.store(tail + total, std::memory_order_release);
  return true;
}

void shm_transport::ring_doorbell(peer& p) {
  if (p.db == nullptr) return;
  p.db->seq.fetch_add(1, std::memory_order_seq_cst);
  if (p.db->sleeping.load(std::memory_order_seq_cst) != 0) {
    futex_wake_one(&p.db->seq);
    wakeups_.fetch_add(1, std::memory_order_relaxed);
  }
}

void shm_transport::send(message m) {
  PX_ASSERT_MSG(m.dest < params_.nranks && m.dest != params_.rank,
                "shm send: dest must be a remote rank");
  PX_ASSERT_MSG(m.source == params_.rank, "shm send: source must be self");
  PX_ASSERT_MSG(m.units >= 1, "shm send: zero-unit message");
  traffic_started_.store(true, std::memory_order_release);
  const std::uint32_t units = m.units;
  sent_total_.fetch_add(units, std::memory_order_release);
  msgs_tx_.fetch_add(1, std::memory_order_relaxed);
  parcels_tx_.fetch_add(units, std::memory_order_relaxed);
  bytes_tx_.fetch_add(m.payload.size(), std::memory_order_relaxed);
  account_sent(m.dest, units);

  // Fault seam (PX_FAULT): an armed drop takes the whole batch before the
  // record becomes visible to the peer; a kill never returns.
  if (fault_drop_units(m.dest, units) > 0) {
    dropped_total_.fetch_add(units, std::memory_order_release);
    account_dropped(m.dest, units);
    pool_.release(std::move(m.payload));
    notify_if_drained();
    return;
  }

  peer& p = *peers_[m.dest];
  bool to_ring = false;
  bool dropped = false;
  bool oversize = false;
  {
    std::lock_guard lock(p.send_lock);
    if (!p.open.load(std::memory_order_acquire)) {
      dropped = true;
    } else if (align8(kRecHdr + m.payload.size()) > p.cap / 2) {
      // Larger than half the ring can wedge behind the wrap marker even
      // on an empty ring; refuse loudly instead.
      dropped = oversize = true;
    } else if (p.pendq.empty() &&
               ring_write(p, m.payload.data(), m.payload.size(), units)) {
      to_ring = true;
    } else {
      // Ring full (or FIFO behind earlier overflow): park locally.  The
      // peer's consumer bumps our doorbell as it frees space, and the
      // progress thread replays the queue in order.
      ring_full_waits_.fetch_add(1, std::memory_order_relaxed);
      p.pend_units.fetch_add(units, std::memory_order_release);
      p.pendq.push_back({std::move(m.payload), units});
    }
  }
  if (to_ring) {
    pool_.release(std::move(m.payload));
    ring_doorbell(p);
  } else if (dropped) {
    dropped_total_.fetch_add(units, std::memory_order_release);
    account_dropped(m.dest, units);
    if (oversize) {
      PX_LOG_WARN(
          "shm send: frame of %zu bytes exceeds ring capacity %zu/2, "
          "dropping %u parcels (raise PX_SHM_RING_BYTES)",
          m.payload.size(), p.cap, units);
    } else if (!disconnects_expected()) {
      PX_LOG_WARN("shm send: peer %u link is down, dropping %u parcels",
                  m.dest, units);
    }
    notify_if_drained();
  }
}

bool shm_transport::pump_ring(peer& p) {
  if (!p.open.load(std::memory_order_acquire) || p.in == nullptr) return false;
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
      close_peer(p, "corrupt record on shm ring");
      return true;
    }
    const std::uint32_t rec_units = detail::get_u32(base + pos + 4);
    auto buf = pool_.acquire();
    buf.resize(len);
    std::memcpy(buf.data(), base + pos + kRecHdr, len);
    // Space frees the moment the copy lands — the producer can refill this
    // stretch while our handler is still running.
    head += need;
    r.head.store(head, std::memory_order_release);
    bytes_rx_.fetch_add(len, std::memory_order_relaxed);

    // Whole-frame seam: no frame_assembler — one validation pass and the
    // frame goes straight to delivery.
    const auto count = p.ingest.accept(buf);
    if (!count.has_value()) {
      pool_.release(std::move(buf));
      close_peer(p, "garbage frame on shm ring (frame_view::parse rejected)");
      return true;
    }
    if (*count > 0) {
      PX_ASSERT_MSG(handler_ != nullptr, "shm rx: no handler registered");
      message m;
      m.source = p.rank;
      m.dest = params_.rank;
      m.units = *count;
      m.payload = std::move(buf);
      msgs_rx_.fetch_add(1, std::memory_order_relaxed);
      handler_(m);
      pool_.release(std::move(m.payload));
      received_total_.fetch_add(*count, std::memory_order_release);
      account_delivered(p.rank, *count);
    } else {
      pool_.release(std::move(buf));
    }
    // After the handler: this is what makes the sender's in_flight() a
    // consumed-by-peer bound, per the transport contract.
    r.consumed_units.fetch_add(rec_units, std::memory_order_release);
    any = true;
  }
  if (any) ring_doorbell(p);  // space freed + consumption progressed
  if (!p.eof_noted && r.producer_closed.load(std::memory_order_acquire) != 0 &&
      head == r.tail.load(std::memory_order_acquire)) {
    // Producer-side EOF with the ring drained: same verdict rules as a tcp
    // EOF — orderly iff disconnects were announced, otherwise the close
    // routes through the shared death books (note_peer_closed).
    p.eof_noted = true;
    const bool expected = disconnects_expected() ||
                          stopping_.load(std::memory_order_acquire);
    close_peer(p, expected ? nullptr : "peer closed its producer side");
  }
  return any;
}

bool shm_transport::pump_pend(peer& p) {
  if (!p.open.load(std::memory_order_acquire)) return false;
  bool any = false;
  std::lock_guard lock(p.send_lock);
  while (!p.pendq.empty()) {
    auto& o = p.pendq.front();
    if (!ring_write(p, o.buf.data(), o.buf.size(), o.units)) break;
    p.pend_units.fetch_sub(o.units, std::memory_order_release);
    pool_.release(std::move(o.buf));
    p.pendq.pop_front();
    any = true;
  }
  return any;
}

void shm_transport::close_peer(peer& p, const char* why) {
  if (!p.open.exchange(false, std::memory_order_acq_rel)) return;
  if (why != nullptr) {
    PX_LOG_WARN("shm transport rank %u: closing link to peer %u (%s)",
                params_.rank, p.rank, why);
  }
  if (p.in != nullptr) p.in->consumer_closed.store(1, std::memory_order_release);
  if (p.out != nullptr) p.out->producer_closed.store(1, std::memory_order_release);
  std::uint64_t orphaned = 0;
  {
    std::lock_guard lock(p.send_lock);
    for (const auto& o : p.pendq) orphaned += o.units;
    p.pendq.clear();
    p.pend_units.store(0, std::memory_order_release);
  }
  if (why == nullptr) {
    // Orderly close: ring-resident units the peer will never (verifiably)
    // consume retire into the dropped books so conservation stays
    // satisfiable without a death verdict.
    const std::uint64_t rung = p.ring_units.load(std::memory_order_acquire);
    const std::uint64_t consumed =
        p.out != nullptr ? p.out->consumed_units.load(std::memory_order_acquire)
                         : 0;
    orphaned += rung > consumed ? rung - consumed : 0;
    if (orphaned > 0) {
      dropped_total_.fetch_add(orphaned, std::memory_order_release);
      account_dropped(p.rank, orphaned);
    }
  }
  // Unexpected close: leave the outstanding column intact — the shared
  // death fold (note_peer_closed) charges everything sent-minus-dropped as
  // lost, the same conservative verdict tcp reaches.  Splitting consumed
  // vs unconsumed units here would make parcels_lost race with how far the
  // casualty's consumer got before dying.
  ring_doorbell(p);
  notify_if_drained();
  // Shared disconnect books last, with no locks held: orderly closes are
  // counted, unexpected ones become a death verdict (and may re-enter the
  // transport through the peer-death handler).
  note_peer_closed(p.rank, why == nullptr);
}

std::uint64_t shm_transport::in_flight() const noexcept {
  std::uint64_t total = 0;
  for (const auto& pp : peers_) {
    if (pp == nullptr || pp->rank == params_.rank) continue;
    const peer& p = *pp;
    if (!p.open.load(std::memory_order_acquire)) continue;
    const std::uint64_t rung = p.ring_units.load(std::memory_order_acquire);
    const std::uint64_t consumed =
        p.out != nullptr
            ? p.out->consumed_units.load(std::memory_order_acquire)
            : 0;
    total += rung > consumed ? rung - consumed : 0;
    total += p.pend_units.load(std::memory_order_acquire);
  }
  return total;
}

void shm_transport::notify_if_drained() {
  if (in_flight() == 0) {
    std::lock_guard lock(drain_mutex_);
    drained_cv_.notify_all();
  }
}

void shm_transport::drain() {
  std::unique_lock lock(drain_mutex_);
  while (in_flight() != 0) {
    // Notified by the progress thread on the zero transition; the timeout
    // is a belt-and-braces bound, not the mechanism.
    drained_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

void shm_transport::close_link(std::size_t rank) {
  // External death verdict (heartbeat lease, px.peer_down): the progress
  // thread owns peer state, so park the request and wake it.
  pending_dead_.fetch_or(1ull << rank, std::memory_order_acq_rel);
  own_db_->seq.fetch_add(1, std::memory_order_seq_cst);
  futex_wake_one(&own_db_->seq);
}

void shm_transport::progress_loop() {
  using clock = std::chrono::steady_clock;
  auto last_probe = clock::now();
  for (;;) {
    const std::uint32_t seq = own_db_->seq.load(std::memory_order_acquire);
    const std::uint64_t doomed =
        pending_dead_.exchange(0, std::memory_order_acq_rel);
    if (doomed != 0) {
      for (std::uint32_t r = 0; r < params_.nranks; ++r) {
        if (((doomed >> r) & 1u) == 0 || r == params_.rank) continue;
        close_peer(*peers_[r], "peer declared dead by the control plane");
      }
    }
    bool did = false;
    for (auto& pp : peers_) {
      peer& p = *pp;
      if (p.rank == params_.rank) continue;
      did |= pump_ring(p);
      if (pump_pend(p)) {
        ring_doorbell(p);
        did = true;
      }
      if (p.open.load(std::memory_order_acquire) && p.out != nullptr &&
          p.out->consumer_closed.load(std::memory_order_acquire) != 0) {
        const bool expected = disconnects_expected() ||
                              stopping_.load(std::memory_order_acquire);
        close_peer(p, expected ? nullptr : "peer closed its consumer side");
      }
    }
    notify_if_drained();
    if (stopping_.load(std::memory_order_acquire) && in_flight() == 0) return;
    if (did) continue;

    const auto now = clock::now();
    if (now - last_probe > std::chrono::milliseconds(100)) {
      last_probe = now;
      for (auto& pp : peers_) {
        peer& p = *pp;
        if (p.rank == params_.rank ||
            !p.open.load(std::memory_order_acquire) || p.hdr == nullptr) {
          continue;
        }
        const int slot = p.rank > params_.rank ? 1 : 0;
        const auto pid = p.hdr->pids[slot].load(std::memory_order_acquire);
        if (pid != 0 && ::kill(pid, 0) == -1 && errno == ESRCH) {
          close_peer(p, "peer process died");
        }
      }
    }

    // Spin window: zero syscalls while both sides stay hot.
    const auto spin_deadline = now + std::chrono::microseconds(params_.spin_us);
    bool rung = false;
    while (clock::now() < spin_deadline) {
      if (own_db_->seq.load(std::memory_order_acquire) != seq ||
          stopping_.load(std::memory_order_relaxed)) {
        rung = true;
        break;
      }
      util::cpu_relax();
    }
    if (rung) continue;

    // Dekker handoff: publish intent, re-check, then sleep.  A sender that
    // bumped seq after our load either sees `sleeping` (and wakes us) or
    // raced our re-check — in which case futex_wait returns EAGAIN on the
    // stale value.  Either way no wakeup is lost.
    own_db_->sleeping.store(1, std::memory_order_seq_cst);
    bool work = own_db_->seq.load(std::memory_order_seq_cst) != seq ||
                stopping_.load(std::memory_order_acquire);
    if (!work) {
      for (const auto& pp : peers_) {
        const peer& p = *pp;
        if (p.rank == params_.rank ||
            !p.open.load(std::memory_order_acquire) || p.in == nullptr) {
          continue;
        }
        if (p.in->tail.load(std::memory_order_acquire) !=
            p.in->head.load(std::memory_order_relaxed)) {
          work = true;
          break;
        }
      }
    }
    if (!work) {
      const int rc = futex_wait(&own_db_->seq, seq, 1'000'000 /* 1ms */);
      if (rc != 0 && errno == ETIMEDOUT && idle_cb_) idle_cb_();
    }
    own_db_->sleeping.store(0, std::memory_order_seq_cst);
  }
}

endpoint_stats shm_transport::stats(endpoint_id ep) const {
  PX_ASSERT_MSG(ep == params_.rank,
                "shm stats: remote ranks keep their own books");
  endpoint_stats out;
  out.messages_sent = msgs_tx_.load(std::memory_order_relaxed);
  out.parcels_sent = parcels_tx_.load(std::memory_order_relaxed);
  out.messages_received = msgs_rx_.load(std::memory_order_relaxed);
  out.bytes_sent = bytes_tx_.load(std::memory_order_relaxed);
  out.bytes_received = bytes_rx_.load(std::memory_order_relaxed);
  return out;
}

link_counters shm_transport::link(endpoint_id ep) const {
  PX_ASSERT_MSG(ep == params_.rank,
                "shm link: remote ranks keep their own books");
  link_counters out;
  out.bytes_tx = bytes_tx_.load(std::memory_order_relaxed);
  out.bytes_rx = bytes_rx_.load(std::memory_order_relaxed);
  out.msgs_tx = msgs_tx_.load(std::memory_order_relaxed);
  out.msgs_rx = msgs_rx_.load(std::memory_order_relaxed);
  return out;
}

std::vector<extra_link_counter> shm_transport::extra_link_counters(
    endpoint_id ep) const {
  PX_ASSERT_MSG(ep == params_.rank,
                "shm link: remote ranks keep their own books");
  return {{"ring_full_waits",
           ring_full_waits_.load(std::memory_order_relaxed)},
          {"wakeups", wakeups_.load(std::memory_order_relaxed)},
          {"peer_failed", peers_failed_total()},
          {"parcels_lost", parcels_lost_total()}};
}

}  // namespace px::net
