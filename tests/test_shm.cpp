// Unit tests for the shared-memory data plane: the whole-frame ingest
// gate (frame_assembler bypass + frame_view::parse poison path), the
// shm_segment RAII lifetime, and two in-process shm_transport instances
// exercising the ring/doorbell protocol end to end.  The TcpDirectSend and
// ShmDirectSend cases run one set of bodies over the shared link engine's
// send path — the sending thread writes the channel itself when nothing is
// queued — on each backend.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include "parcel/parcel.hpp"
#include "transport_pair.hpp"
#include "util/serialize.hpp"
#include "util/shm_segment.hpp"

namespace {

using namespace px;
using namespace std::chrono_literals;
using test::shm_pair;
using test::tcp_pair;

parcel::parcel sample_parcel(int salt = 0) {
  parcel::parcel p;
  p.destination = gas::gid::make(gas::gid_kind::data, 1, 42 + salt);
  p.action = 7 + static_cast<parcel::action_id>(salt);
  p.arguments = util::to_bytes(std::string("shm-payload"), 123 + salt);
  p.source = 0;
  return p;
}

std::vector<std::byte> make_frame(int records) {
  std::vector<std::byte> buf;
  parcel::frame_begin(buf);
  for (int i = 0; i < records; ++i) {
    parcel::frame_append(buf, sample_parcel(i));
  }
  return buf;
}

template <typename Pred>
bool eventually(Pred&& pred, std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

bool shm_name_exists(const std::string& name) {
  const int fd = ::shm_open(("/" + name).c_str(), O_RDONLY, 0);
  if (fd >= 0) {
    ::close(fd);
    return true;
  }
  return errno != ENOENT;
}

// ------------------------------------------------- whole-frame ingest seam

TEST(WholeFrameIngest, AcceptsValidFrameAndReturnsCount) {
  net::whole_frame_ingest ingest;
  const auto frame = make_frame(3);
  const auto count = ingest.accept(frame);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, 3u);
  EXPECT_FALSE(ingest.poisoned());
  // Repeated frames keep flowing — poison is for rejects only.
  EXPECT_TRUE(ingest.accept(make_frame(1)).has_value());
}

TEST(WholeFrameIngest, CorruptMagicPoisons) {
  net::whole_frame_ingest ingest;
  auto frame = make_frame(2);
  frame[0] = std::byte{0xEE};  // break the "PXBF" magic
  EXPECT_FALSE(ingest.accept(frame).has_value());
  EXPECT_TRUE(ingest.poisoned());
}

TEST(WholeFrameIngest, TruncatedRecordPoisons) {
  net::whole_frame_ingest ingest;
  auto frame = make_frame(2);
  frame.resize(frame.size() - 5);  // frame_view::parse must reject
  EXPECT_FALSE(ingest.accept(frame).has_value());
  EXPECT_TRUE(ingest.poisoned());
}

TEST(WholeFrameIngest, OversizeFramePoisons) {
  net::whole_frame_ingest ingest(64);  // tiny bound
  EXPECT_FALSE(ingest.accept(make_frame(4)).has_value());
  EXPECT_TRUE(ingest.poisoned());
}

TEST(WholeFrameIngest, PoisonIsSticky) {
  net::whole_frame_ingest ingest;
  auto bad = make_frame(1);
  bad[0] = std::byte{0x00};
  EXPECT_FALSE(ingest.accept(bad).has_value());
  // A perfectly valid frame after poison still refuses: there is no
  // trustworthy resync point on a corrupted link.
  EXPECT_FALSE(ingest.accept(make_frame(1)).has_value());
  EXPECT_TRUE(ingest.poisoned());
}

// ------------------------------------------------------ shm_segment RAII

TEST(ShmSegment, CreateAttachUnlinkLifetime) {
  const std::string name = "px.test-seg-" + std::to_string(::getpid());
  auto created = util::shm_segment::create(name, 4096);
  ASSERT_TRUE(created.valid());
  EXPECT_TRUE(shm_name_exists(name));

  auto opened = util::shm_segment::open_existing(name, 1000);
  ASSERT_TRUE(opened.valid());
  EXPECT_EQ(opened.size(), 4096u);

  // Both mappings alias the same physical pages.
  std::memcpy(created.data(), "hello", 6);
  EXPECT_STREQ(static_cast<const char*>(opened.data()), "hello");

  // Unlink retires the name; the mappings stay fully usable.
  created.unlink();
  EXPECT_FALSE(shm_name_exists(name));
  std::memcpy(opened.data(), "still", 6);
  EXPECT_STREQ(static_cast<const char*>(created.data()), "still");
}

TEST(ShmSegment, DestructorUnlinksWhatItCreated) {
  const std::string name = "px.test-raii-" + std::to_string(::getpid());
  {
    auto seg = util::shm_segment::create(name, 4096);
    EXPECT_TRUE(shm_name_exists(name));
  }
  EXPECT_FALSE(shm_name_exists(name));  // crash-safety backstop
}

// ------------------------------------------------------ backend names

TEST(Shm, BackendsDeclareWholeFrameDelivery) {
  net::shm_params sp;
  sp.rank = 0;
  sp.nranks = 1;
  net::shm_transport shm(sp);
  EXPECT_STREQ(shm.backend_name(), "shm");

  net::tcp_params tp;
  tp.rank = 0;
  tp.nranks = 1;
  net::tcp_transport tcp(tp);
  EXPECT_STREQ(tcp.backend_name(), "tcp");
}

// ---------------------------------------------- two-instance ring tests

net::shm_params ring_of(std::size_t ring_bytes) {
  net::shm_params p;
  p.ring_bytes = ring_bytes;
  return p;
}

TEST(Shm, DeliversWholeFramesAndUnlinksSegments) {
  shm_pair pair;
  const std::string tok_a = pair.a->listen_address();
  const std::string tok_b = pair.b->listen_address();

  std::atomic<int> got_units{0};
  std::vector<std::byte> got_payload;
  pair.a->set_handler(0, [](net::message&) {});
  pair.b->set_handler(1, [&](net::message& m) {
    got_payload = m.payload;  // copy: the buffer recycles after return
    got_units.fetch_add(m.units);
  });
  pair.connect();

  // Crash-safe lifetime: every name is retired the moment the mesh is up.
  EXPECT_FALSE(shm_name_exists(tok_a));
  EXPECT_FALSE(shm_name_exists(tok_b));
  EXPECT_FALSE(shm_name_exists(tok_a + ".p1"));

  const auto frame = make_frame(3);
  net::message m;
  m.source = 0;
  m.dest = 1;
  m.units = 3;
  m.payload = frame;
  pair.a->send(std::move(m));

  ASSERT_TRUE(eventually([&] { return got_units.load() == 3; }));
  EXPECT_EQ(got_payload, frame);  // byte-exact whole-frame delivery
  pair.a->drain();
  EXPECT_EQ(pair.a->in_flight(), 0u);
  EXPECT_EQ(pair.a->messages_sent_total(), 3u);
  EXPECT_EQ(pair.b->parcels_received_total(), 3u);
  EXPECT_EQ(pair.b->parcels_dropped_total(), 0u);
}

TEST(Shm, InFlightCountsUntilPeerConsumes) {
  shm_pair pair;
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  pair.a->set_handler(0, [](net::message&) {});
  pair.b->set_handler(1, [&](net::message&) {
    entered.store(true);
    while (!release.load()) std::this_thread::sleep_for(1ms);
  });
  pair.connect();

  net::message m;
  m.source = 0;
  m.dest = 1;
  m.units = 2;
  m.payload = make_frame(2);
  pair.a->send(std::move(m));

  // The frame reached the peer, but its handler has not returned: the
  // contract says those units are still in flight on the sender.
  ASSERT_TRUE(eventually([&] { return entered.load(); }));
  EXPECT_EQ(pair.a->in_flight(), 2u);
  release.store(true);
  pair.a->drain();
  EXPECT_EQ(pair.a->in_flight(), 0u);
  EXPECT_EQ(pair.b->parcels_received_total(), 2u);
}

TEST(Shm, GarbageFramePoisonsLinkNothingDelivered) {
  shm_pair pair;
  std::atomic<bool> delivered{false};
  pair.a->set_handler(0, [](net::message&) {});
  pair.b->set_handler(1, [&](net::message&) { delivered.store(true); });
  pair.connect();

  net::message m;
  m.source = 0;
  m.dest = 1;
  m.units = 1;
  m.payload = util::to_bytes(std::string("not a frame at all"));
  pair.a->send(std::move(m));

  // The receiver rejects via frame_view::parse and closes the link; with
  // no disconnect announced, the sender treats the closure as a death
  // verdict and conservatively charges the outstanding unit as lost.
  ASSERT_TRUE(
      eventually([&] { return pair.a->parcels_lost_total() == 1u; }));
  pair.a->drain();
  EXPECT_FALSE(delivered.load());
  EXPECT_EQ(pair.b->parcels_received_total(), 0u);
  EXPECT_EQ(pair.a->in_flight(), 0u);
}

TEST(Shm, OversizeFrameDropsWithDiagnosticNotWedge) {
  shm_pair pair(ring_of(4096));  // tiny rings: max shippable record is 2048 bytes
  pair.a->set_handler(0, [](net::message&) {});
  pair.b->set_handler(1, [](net::message&) {});
  pair.connect();

  net::message m;
  m.source = 0;
  m.dest = 1;
  m.units = 1;
  m.payload.resize(3000);
  pair.a->send(std::move(m));

  // Dropped at send: a frame that can never fit must not park forever.
  EXPECT_EQ(pair.a->parcels_dropped_total(), 1u);
  pair.a->drain();
  EXPECT_EQ(pair.a->in_flight(), 0u);
}

TEST(Shm, ManySmallFramesFlowThroughRingWrap) {
  shm_pair pair(ring_of(8192));  // force plenty of wrap-marker traffic
  std::atomic<std::uint64_t> got{0};
  pair.a->set_handler(0, [](net::message&) {});
  pair.b->set_handler(1, [&](net::message& m) { got.fetch_add(m.units); });
  pair.connect();

  constexpr int kFrames = 2000;
  for (int i = 0; i < kFrames; ++i) {
    net::message m;
    m.source = 0;
    m.dest = 1;
    m.units = 2;
    m.payload = make_frame(2);
    pair.a->send(std::move(m));
  }
  pair.a->drain();
  ASSERT_TRUE(eventually([&] { return got.load() == 2u * kFrames; }));
  EXPECT_EQ(pair.b->parcels_received_total(), 2u * kFrames);
  EXPECT_EQ(pair.a->parcels_dropped_total(), 0u);
  // Tiny ring + fast sender: the overflow queue must have engaged rather
  // than anything blocking or dropping.
  const auto extras = pair.a->extra_link_counters(0);
  ASSERT_EQ(extras.size(), 5u);
  EXPECT_STREQ(extras[0].name, "ring_full_waits");
  EXPECT_STREQ(extras[2].name, "worker_rx");
  EXPECT_STREQ(extras[3].name, "peer_failed");
  EXPECT_STREQ(extras[4].name, "parcels_lost");
}

// ------------------------------------- direct send, on tcp and on shm

// What differs between the backends under the shared send path.
struct tcp_backend {
  using pair = tcp_pair;
  static net::tcp_params params() { return {}; }
  // Batch frames of 16 MiB in all: loopback's socket buffers take a
  // fraction, the rest waits in the send queue.
  static constexpr std::size_t kBatchBytes = 256u << 10;
  // tcp leaves batch frames to the progress thread.
  static constexpr bool kDirectBatches = false;
  // In flight until the bytes reach the kernel, not until the peer's
  // handler returns.
  static constexpr bool kCountsUntilConsumed = false;
  // The send-path row the backend publishes, and what it counts.
  static constexpr const char* kSendRow = "direct_sends";
  static std::uint64_t send_row(const net::distributed_transport& t) {
    return t.direct_frames();
  }
  static constexpr bool kClosesFd = true;  // closing a link frees its fd
};

struct shm_backend {
  using pair = shm_pair;
  // A 4 KiB ring holds a couple of batch frames, so concurrent senders
  // run the overflow queue.
  static net::shm_params params() { return ring_of(4096); }
  static constexpr std::size_t kBatchBytes = 1024;
  static constexpr bool kDirectBatches = true;
  static constexpr bool kCountsUntilConsumed = true;
  static constexpr const char* kSendRow = "ring_full_waits";
  static std::uint64_t send_row(const net::distributed_transport& t) {
    return t.queued_frames();
  }
  static constexpr bool kClosesFd = false;
};

std::uint64_t counter_row(const net::distributed_transport& t,
                          const char* name, net::endpoint_id ep = 0) {
  for (const auto& c : t.extra_link_counters(ep)) {
    if (std::strcmp(c.name, name) == 0) return c.value;
  }
  ADD_FAILURE() << t.backend_name() << " has no " << name << " row";
  return 0;
}

// The frames send() wrote into the channel itself, after checking the
// row the backend publishes.
template <typename backend>
std::uint64_t direct_sends(const net::distributed_transport& t) {
  EXPECT_EQ(counter_row(t, backend::kSendRow), backend::send_row(t));
  return t.direct_frames();
}

// A frame of `records` parcels whose action names its sender and sequence
// number and whose arguments are `arg_bytes` of a pattern derived from
// both, so the receiver can check order and bytes.
std::vector<std::byte> seq_frame(std::uint32_t sender, std::uint32_t seq,
                                 std::size_t arg_bytes, int records = 1) {
  std::vector<std::byte> buf;
  parcel::frame_begin(buf);
  for (int r = 0; r < records; ++r) {
    parcel::parcel p;
    p.destination = gas::gid::make(gas::gid_kind::data, 1, 7);
    p.action = sender << 24 | seq;
    p.arguments.resize(arg_bytes);
    for (std::size_t i = 0; i < arg_bytes; ++i) {
      p.arguments[i] = static_cast<std::byte>(sender * 131 + seq + i + r);
    }
    p.source = 0;
    parcel::frame_append(buf, p);
  }
  return buf;
}

net::message to_peer(std::vector<std::byte> frame, std::uint32_t units,
                     bool batch) {
  net::message m;
  m.source = 0;
  m.dest = 1;
  m.units = units;
  m.batch = batch;
  m.payload = std::move(frame);
  return m;
}

// Each case below is one body, templated on the backend, that a
// TcpDirectSend and a ShmDirectSend test run (the idiom of the disconnect
// cases in test_resilience.cpp).

template <typename backend>
void backlog_and_direct_frames_keep_each_senders_order() {
  typename backend::pair pair(backend::params());
  std::atomic<bool> gate{false};
  std::vector<std::vector<std::byte>> got;  // progress thread, then main
  std::atomic<std::uint64_t> got_units{0};
  pair.a->set_handler(0, [](net::message&) {});
  pair.b->set_handler(1, [&](net::message& m) {
    // A closed gate stops the reads, so the sender's socket buffer (or
    // ring) fills and the batch frames pile up in its send queue.
    while (!gate.load()) std::this_thread::sleep_for(1ms);
    got.push_back(m.payload);
    got_units.fetch_add(m.units);
  });
  pair.connect();

  // Batch sender: 64 frames.  With reads stopped, the channel takes a
  // fraction (tcp: loopback's socket buffers, the send buffer up to
  // tcp_wmem's 4 MiB, the receive buffer barely grown); the rest waits in
  // the send queue until the gate opens.
  constexpr std::uint32_t kBatchFrames = 64;
  constexpr std::size_t kBatchBytes = backend::kBatchBytes;
  std::atomic<std::uint64_t> backlog{0};  // units queued at kQueuedFrom
  // Isolated sender: 2-parcel frames, in four phases: [0, 100) while the
  // batch frames queue; [100, 150) behind a certain backlog, so each is
  // queued; [150, 400) while the backlog drains; [400, 410) on a quiet
  // link, so each is a direct write.
  constexpr std::uint32_t kQueuedFrom = 100, kOpenAt = 150, kQuietAt = 400,
                          kDirectFrames = 410;
  std::atomic<bool> batch_done{false};
  std::atomic<bool> open_gate{false};

  std::thread batcher([&] {
    for (std::uint32_t i = 0; i < kBatchFrames; ++i) {
      pair.a->send(to_peer(seq_frame(1, i, kBatchBytes), 1, true));
    }
    batch_done.store(true);
  });
  std::thread isolated([&] {
    for (std::uint32_t i = 0; i < kDirectFrames; ++i) {
      // Bounded waits: a broken link fails the checks below, not by hanging.
      if (i == kQueuedFrom) {
        eventually([&] { return batch_done.load(); });
        backlog.store(pair.a->in_flight());
      }
      if (i == kOpenAt) open_gate.store(true);
      if (i == kQuietAt) {
        eventually([&] {
          return got_units.load() >= kBatchFrames + 2 * kQuietAt;
        });
      }
      pair.a->send(to_peer(seq_frame(2, i, 64, 2), 2, false));
      std::this_thread::sleep_for(20us);
    }
  });
  eventually([&] { return open_gate.load(); }, 20s);
  gate.store(true);
  batcher.join();
  isolated.join();

  const std::uint64_t units = kBatchFrames + 2 * kDirectFrames;
  ASSERT_TRUE(eventually([&] { return got_units.load() == units; }));
  pair.a->drain();
  EXPECT_EQ(pair.a->messages_sent_total(), units);
  EXPECT_EQ(pair.b->parcels_received_total(), units);
  EXPECT_EQ(pair.a->parcels_dropped_total(), 0u);

  std::uint32_t next[3] = {0, 0, 0};
  for (const auto& frame : got) {
    const auto view = parcel::frame_view::parse(frame);
    ASSERT_TRUE(view.has_value());
    const parcel::action_id id = (*view->begin()).action();
    const std::uint32_t sender = id >> 24, seq = id & 0xffffffu;
    ASSERT_TRUE(sender == 1 || sender == 2) << "sender " << sender;
    ASSERT_EQ(seq, next[sender]) << "sender " << sender << " out of order";
    next[sender] += 1;
    EXPECT_EQ(frame, sender == 1 ? seq_frame(1, seq, kBatchBytes)
                                 : seq_frame(2, seq, 64, 2));
  }
  EXPECT_EQ(next[1], kBatchFrames);
  EXPECT_EQ(next[2], kDirectFrames);
  // Isolated frames behind a backlog never go direct, nor do batch frames
  // on tcp; on a quiet link every isolated frame does.
  const std::uint64_t direct = direct_sends<backend>(*pair.a);
  EXPECT_GE(direct, kDirectFrames - kQuietAt);
  EXPECT_LE(direct, (backend::kDirectBatches ? kBatchFrames : 0) +
                        kDirectFrames - (kOpenAt - kQueuedFrom))
      << "backlog when the queued phase began: " << backlog.load()
      << " units";
}

TEST(TcpDirectSend, BacklogAndDirectFramesKeepEachSendersOrder) {
  backlog_and_direct_frames_keep_each_senders_order<tcp_backend>();
}

TEST(ShmDirectSend, BacklogAndDirectFramesKeepEachSendersOrder) {
  backlog_and_direct_frames_keep_each_senders_order<shm_backend>();
}

template <typename backend>
void direct_frame_leaves_nothing_in_flight() {
  typename backend::pair pair(backend::params());
  std::atomic<std::uint64_t> got{0};
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  pair.a->set_handler(0, [](net::message&) {});
  pair.b->set_handler(1, [&](net::message& m) {
    entered.store(true);
    while (!release.load()) std::this_thread::sleep_for(1ms);
    got.fetch_add(m.units);
  });
  pair.connect();

  pair.a->send(to_peer(make_frame(3), 3, false));
  if (backend::kCountsUntilConsumed) {
    // In the ring before send() returned, but in flight until the peer's
    // handler is done with it.
    ASSERT_TRUE(eventually([&] { return entered.load(); }));
    ASSERT_EQ(pair.a->in_flight(), 3u);
  } else {
    // The frame reached the kernel before send() returned: nothing is
    // left for the progress thread, so the books are already settled.
    ASSERT_EQ(pair.a->in_flight(), 0u);
  }
  release.store(true);
  pair.a->drain();
  EXPECT_EQ(pair.a->in_flight(), 0u);
  EXPECT_EQ(direct_sends<backend>(*pair.a), 1u);
  EXPECT_EQ(pair.a->messages_sent_total(), 3u);
  ASSERT_TRUE(eventually([&] { return got.load() == 3u; }));
  // deliver() books the units only after the handler returns.
  EXPECT_TRUE(eventually([&] {
    return pair.b->parcels_received_total() == pair.a->messages_sent_total();
  }));
  EXPECT_EQ(pair.a->parcels_dropped_total(), 0u);
}

TEST(TcpDirectSend, DirectFrameLeavesNothingInFlight) {
  direct_frame_leaves_nothing_in_flight<tcp_backend>();
}

TEST(ShmDirectSend, DirectFrameLeavesNothingInFlight) {
  direct_frame_leaves_nothing_in_flight<shm_backend>();
}

// Open descriptors of this process, without the one listing them.
std::set<int> open_fds() {
  std::set<int> fds;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return fds;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] != '.') fds.insert(std::atoi(e->d_name));
  }
  fds.erase(::dirfd(dir));
  ::closedir(dir);
  return fds;
}

int move_fd_high(int fd) {
  const int high = ::fcntl(fd, F_DUPFD, 512);
  ::close(fd);
  return high;
}

template <typename backend>
void closed_peer_drops_without_touching_the_channel() {
  typename backend::pair pair(backend::params());
  std::atomic<std::uint64_t> got{0};
  pair.a->set_handler(0, [](net::message&) {});
  pair.b->set_handler(1, [&](net::message& m) { got.fetch_add(m.units); });
  pair.connect();

  const std::set<int> before = open_fds();
  pair.b->expect_peer_disconnects();
  pair.a->mark_peer_dead(1);
  ASSERT_TRUE(
      eventually([&] { return pair.a->unexpected_disconnects() == 1; }));

  // Put a live socket on every descriptor number the close freed, the old
  // link's among them: a send that still used the stale fd would land
  // on one of them.  (A closed shm link frees none.)
  std::vector<int> watchers;
  const std::set<int> after = open_fds();
  for (const int fd : before) {
    if (after.count(fd) != 0) continue;
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    // The pair itself takes the lowest free numbers, the ones under test:
    // move both ends above them first.
    const int end = move_fd_high(sv[0]);
    watchers.push_back(move_fd_high(sv[1]));
    ASSERT_EQ(::dup2(end, fd), fd);
    ::close(end);
    watchers.push_back(fd);
  }
  ASSERT_EQ(watchers.empty(), !backend::kClosesFd);

  pair.a->send(to_peer(make_frame(2), 2, false));
  EXPECT_EQ(pair.a->parcels_dropped_total(), 2u);
  EXPECT_EQ(pair.a->in_flight(), 0u);
  pair.a->drain();
  EXPECT_EQ(direct_sends<backend>(*pair.a), 0u);
  for (std::size_t i = 0; i < watchers.size(); i += 2) {
    std::byte sink[16];
    EXPECT_EQ(::recv(watchers[i], sink, sizeof sink, MSG_DONTWAIT), -1);
    EXPECT_EQ(errno, EAGAIN);
    ::close(watchers[i]);
    ::close(watchers[i + 1]);
  }
  EXPECT_EQ(got.load(), 0u);
}

TEST(TcpDirectSend, ClosedPeerDropsWithoutTouchingTheFd) {
  closed_peer_drops_without_touching_the_channel<tcp_backend>();
}

TEST(ShmDirectSend, ClosedPeerDropsWithoutTouchingTheChannel) {
  closed_peer_drops_without_touching_the_channel<shm_backend>();
}

// ------------------------------------------- receive on a polling worker

// The sequence number seq_frame() put into a one-record frame's action.
std::uint32_t frame_seq(const net::message& m) {
  const auto view = parcel::frame_view::parse(m.payload);
  return view.has_value() ? (*view->begin()).action() & 0xFFFFFFu : ~0u;
}

// A thread polls b's links in bursts while b's progress thread backs it
// up, over an 8 KiB ring the frames wrap hundreds of times: both take
// frames, one at a time under the receive claim, so each arrives once and
// in order.
TEST(ShmWorkerReceive, PollerRacesTheProgressThreadInOrder) {
  constexpr std::uint32_t kFrames = 100'000;
  shm_pair pair(ring_of(8192));
  std::uint32_t next = 0;  // written under the receive claim only
  std::atomic<std::uint32_t> out_of_order{0};
  std::atomic<std::uint32_t> got{0};
  pair.a->set_handler(0, [](net::message&) {});
  pair.b->set_handler(1, [&](net::message& m) {
    if (frame_seq(m) != next) out_of_order.fetch_add(1);
    next = frame_seq(m) + 1;
    got.fetch_add(1, std::memory_order_release);
  });
  pair.connect();

  std::atomic<bool> done{false};
  std::thread poller([&] {
    while (!done.load()) {
      for (int i = 0; i < 200; ++i) pair.b->poll(false);
      pair.b->poll(true);  // a busy spell: the progress thread takes over
      std::this_thread::sleep_for(50us);
    }
  });
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    pair.a->send(to_peer(seq_frame(0, i, 8), 1, false));
  }
  pair.a->drain();
  const bool all = eventually([&] { return got.load() == kFrames; });
  done.store(true);
  poller.join();
  ASSERT_TRUE(all) << got.load() << " of " << kFrames;
  EXPECT_EQ(out_of_order.load(), 0u);
  EXPECT_EQ(pair.a->in_flight(), 0u);
  EXPECT_EQ(pair.a->parcels_dropped_total(), 0u);
  EXPECT_TRUE(eventually([&] {
    return pair.b->parcels_received_total() == pair.a->messages_sent_total();
  }));
  EXPECT_EQ(pair.b->stats(1).messages_received, kFrames);
  // Both readers took part, and the row reads the engine's count.
  const std::uint64_t by_worker = pair.b->worker_frames();
  EXPECT_GT(by_worker, 0u);
  EXPECT_LT(by_worker, kFrames);
  EXPECT_EQ(counter_row(*pair.b, "worker_rx", 1), by_worker);
}

// The poller counts itself in, a frame lands while senders skip the wake,
// and the poller leaves without reading it (its worker went busy): the
// last poller's re-check must hand the frame to the progress thread at
// once, not leave it to the thread's 1 ms timeout.  The idle callback
// runs on each timed-out wait, just before that pass pumps, so a frame
// the timeout found sees the count move.
TEST(ShmWorkerReceive, BackStopTakesOverWhenThePollerStops) {
  constexpr std::uint32_t kRounds = 200;
  shm_pair pair;
  std::atomic<std::uint32_t> got{0};
  std::atomic<std::uint64_t> timeouts{0};
  std::atomic<std::uint64_t> timeouts_at_delivery{0};
  pair.a->set_handler(0, [](net::message&) {});
  pair.b->set_handler(1, [&](net::message&) {
    timeouts_at_delivery.store(timeouts.load());
    got.fetch_add(1);
  });
  pair.b->set_idle_callback([&] { timeouts.fetch_add(1); });
  pair.connect();

  std::uint32_t late = 0;
  for (std::uint32_t i = 0; i < kRounds; ++i) {
    std::this_thread::sleep_for(300us);  // the progress thread goes to sleep
    pair.b->poll(false);
    const std::uint64_t before = timeouts.load();
    pair.a->send(to_peer(seq_frame(0, i, 8), 1, false));
    pair.b->poll(true);
    ASSERT_TRUE(eventually([&] { return got.load() == i + 1; }));
    if (timeouts_at_delivery.load() != before) ++late;
  }
  // Every frame came by the back-stop, nearly all without a timeout.
  EXPECT_EQ(pair.b->worker_frames(), 0u);
  EXPECT_LT(late, kRounds / 2);
  pair.a->drain();
  EXPECT_EQ(pair.a->in_flight(), 0u);
  EXPECT_EQ(pair.b->parcels_received_total(), kRounds);
}

// A garbage frame met by a polling thread: the close, and the death
// handler with it, run on the progress thread, never on the poller.
TEST(ShmWorkerReceive, PollerHandsTheCloseToTheProgressThread) {
  shm_pair pair;
  std::atomic<bool> died{false};
  std::thread::id died_on;
  pair.a->set_handler(0, [](net::message&) {});
  pair.b->set_handler(1, [](net::message&) {});
  pair.b->set_peer_death_handler([&](std::size_t) {
    died_on = std::this_thread::get_id();
    died.store(true);
  });
  pair.connect();

  // Counted in, this thread is the one that meets the frame: the
  // progress thread sleeps, and the send skips its wake.
  pair.b->poll(false);
  std::this_thread::sleep_for(2ms);
  pair.a->send(to_peer(util::to_bytes(std::string("not a frame")), 1, false));
  const bool closed = eventually([&] {
    pair.b->poll(false);
    return died.load();
  });
  pair.b->poll(true);
  ASSERT_TRUE(closed);
  EXPECT_NE(died_on, std::this_thread::get_id());
  EXPECT_EQ(pair.b->peers_failed_total(), 1u);
  EXPECT_EQ(pair.b->parcels_received_total(), 0u);
}

}  // namespace
