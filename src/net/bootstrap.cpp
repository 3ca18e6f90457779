#include "net/bootstrap.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "net/socket_util.hpp"
#include "util/assert.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"

namespace px::net {

namespace {

// Control record tags.  Every record is [u32 len][u8 tag][payload]; len
// covers tag + payload.  The control plane is tiny and latency-tolerant,
// so records are blocking and unbatched.
constexpr std::uint8_t kTagHello = 1;    // rank -> root: u32 rank + endpoint
constexpr std::uint8_t kTagTable = 2;    // root -> rank: endpoints + blob
constexpr std::uint8_t kTagBarrier = 3;  // both directions, empty payload
constexpr std::uint8_t kTagQuiesce = 4;  // rank -> root: 5 x u64
constexpr std::uint8_t kTagVerdict = 5;  // root -> rank: u8 quiescent
constexpr std::uint8_t kTagClockPing = 6;  // rank -> root: empty
constexpr std::uint8_t kTagClockPong = 7;  // root -> rank: u64 root now_ns
// Heartbeat channel (dedicated second connection per rank).
constexpr std::uint8_t kTagHbHello = 8;    // rank -> root: u32 rank
constexpr std::uint8_t kTagHb = 9;         // both directions, empty payload
// u32 dead rank: rank -> root reports a verdict, root -> rank announces it.
constexpr std::uint8_t kTagPeerDown = 10;
constexpr std::uint8_t kTagGoodbye = 11;   // orderly-shutdown announcement

// Collective poll slice: how often a blocked collective rechecks the dead
// mask; bounds how long a casualty can stall the survivors beyond the
// lease itself.
constexpr int kPollSliceMs = 50;

// Thin std::byte-buffer wrappers over the shared little-endian codec in
// socket_util.hpp (one byte-order authority for the whole net layer).
void append_u32(std::vector<std::byte>& out, std::uint32_t v) {
  std::uint8_t tmp[4];
  detail::put_u32(tmp, v);
  for (const std::uint8_t b : tmp) out.push_back(static_cast<std::byte>(b));
}

void append_u64(std::vector<std::byte>& out, std::uint64_t v) {
  std::uint8_t tmp[8];
  detail::put_u64(tmp, v);
  for (const std::uint8_t b : tmp) out.push_back(static_cast<std::byte>(b));
}

std::uint32_t read_u32(const std::byte* p) {
  return detail::get_u32(reinterpret_cast<const std::uint8_t*>(p));
}

std::uint64_t read_u64(const std::byte* p) {
  return detail::get_u64(reinterpret_cast<const std::uint8_t*>(p));
}

}  // namespace

bootstrap::bootstrap(bootstrap_params params)
    : params_(params),
      members_(params.rank, params.nranks,
               static_cast<std::int64_t>(params.heartbeat_interval_us) * 1000,
               static_cast<std::int64_t>(params.lease_ms) * 1'000'000),
      quiescence_(params.nranks),
      ctl_fds_(params.nranks, -1),
      hb_fds_(params.nranks, -1) {
  PX_ASSERT_MSG(params_.lease_ms >= 1 && params_.heartbeat_interval_us >= 1,
                "bootstrap: heartbeat interval and lease must be nonzero");
  const auto [host, port] = detail::split_host_port_impl(params_.root);
  if (params_.rank == 0) {
    listen_fd_ = detail::make_listener(host, port);
  } else {
    ctl_fds_[0] = detail::dial(host, port, params_.connect_timeout_ms);
    PX_ASSERT_MSG(ctl_fds_[0] >= 0,
                  "bootstrap: cannot reach rank 0 (PX_NET_ROOT)");
  }
}

bootstrap::~bootstrap() {
  (void)members_.expect_shutdown();  // ends the heartbeat loop
  if (hb_thread_.joinable()) hb_thread_.join();
  for (const auto* fds : {&ctl_fds_, &hb_fds_}) {
    for (const int fd : *fds) {
      if (fd >= 0) close(fd);
    }
  }
  if (listen_fd_ >= 0) close(listen_fd_);
}

bool bootstrap::try_send_record(int fd, std::uint8_t tag,
                                std::span<const std::byte> payload) {
  std::vector<std::byte> rec;
  rec.reserve(5 + payload.size());
  append_u32(rec, static_cast<std::uint32_t>(1 + payload.size()));
  rec.push_back(static_cast<std::byte>(tag));
  rec.insert(rec.end(), payload.begin(), payload.end());
  return detail::send_all(fd, rec.data(), rec.size());
}

std::optional<std::pair<std::uint8_t, std::vector<std::byte>>>
bootstrap::try_recv_record_any(int fd) {
  std::byte header[4];
  if (!detail::recv_all(fd, header, sizeof header)) return std::nullopt;
  const std::uint32_t len = read_u32(header);
  PX_ASSERT_MSG(len >= 1 && len <= (1u << 20),
                "bootstrap: corrupt control record length");
  std::vector<std::byte> body(len);
  if (!detail::recv_all(fd, body.data(), body.size())) return std::nullopt;
  const auto tag = std::to_integer<std::uint8_t>(body[0]);
  body.erase(body.begin());
  return std::make_pair(tag, std::move(body));
}

void bootstrap::send_record(int fd, std::uint8_t tag,
                            std::span<const std::byte> payload) {
  PX_ASSERT_MSG(try_send_record(fd, tag, payload),
                "bootstrap: control send failed (peer died?)");
}

std::vector<std::byte> bootstrap::recv_record(int fd,
                                              std::uint8_t expect_tag) {
  auto rec = try_recv_record_any(fd);
  PX_ASSERT_MSG(rec.has_value(), "bootstrap: control recv failed (peer died?)");
  PX_ASSERT_MSG(rec->first == expect_tag,
                "bootstrap: unexpected control record tag (collective "
                "calls out of order?)");
  return std::move(rec->second);
}

void bootstrap::set_peer_down_handler(std::function<void(std::uint32_t)> h) {
  // Stored before arming: a survivable verdict reads it only after it saw
  // survive mode armed.
  on_peer_down_ = std::move(h);
  members_.arm_survive();
}

void bootstrap::expect_shutdown() noexcept {
  if (!members_.expect_shutdown()) return;
  // Tell the other side the silence to come is orderly, so its lease/EOF
  // detectors stand down even if our process exits before it reacts.
  std::lock_guard lock(hb_send_mutex_);
  for (std::uint32_t r = 0; r < params_.nranks; ++r) {
    if (hb_fds_[r] >= 0 && !members_.is_dead(r)) {
      (void)try_send_record(hb_fds_[r], kTagGoodbye, {});
    }
  }
}

void bootstrap::report_death(std::uint32_t rank, const char* why,
                             std::uint32_t source) {
  const membership::decision d = members_.report(rank, source);
  switch (d.kind) {
    case membership::verdict::ignore:
      return;
    case membership::verdict::echo:
      // The first reporter owns the diagnostic; this exit is silent.
      std::_Exit(1);
    case membership::verdict::fatal:
      PX_LOG_ERROR(
          "bootstrap: rank %u is lost (%s) and this machine cannot survive "
          "rank loss here -- exiting",
          rank, why);
      // _Exit, not abort: the diagnostic above *is* the product; a core
      // dump of the surviving process would only bury it.
      std::_Exit(1);
    case membership::verdict::survive:
      break;
  }
  PX_LOG_WARN("bootstrap: rank %u declared dead (%s); continuing with %u "
              "live ranks",
              rank, why, members_.live_ranks());
  std::vector<std::byte> payload;
  append_u32(payload, rank);
  {
    std::lock_guard lock(hb_send_mutex_);
    for (std::uint32_t r = 0; r < params_.nranks; ++r) {
      if (((d.tell >> r) & 1u) != 0 && hb_fds_[r] >= 0) {
        (void)try_send_record(hb_fds_[r], kTagPeerDown, payload);
      }
    }
  }
  on_peer_down_(rank);
}

std::vector<std::byte> bootstrap::ask_root(
    std::uint8_t tag, std::span<const std::byte> payload,
    std::uint8_t reply_tag) {
  // Blocking is safe: rank 0's side of every collective is lease-bounded,
  // and its own death EOFs us out into the fatal path.
  std::optional<std::pair<std::uint8_t, std::vector<std::byte>>> reply;
  if (try_send_record(ctl_fds_[0], tag, payload)) {
    reply = try_recv_record_any(ctl_fds_[0]);
  }
  if (!reply.has_value()) {
    report_death(0, "control socket lost mid-collective");
    return {};  // reached only once shutdown is under way
  }
  PX_ASSERT_MSG(reply->first == reply_tag,
                "bootstrap: unexpected control record tag (collective "
                "calls out of order?)");
  return std::move(reply->second);
}

std::optional<std::vector<std::byte>> bootstrap::recv_from_live(
    std::uint32_t r, std::uint8_t tag) {
  for (;;) {
    if (members_.is_dead(r)) {
      // Seen, not detected: in fail-fast mode this observer exits too.
      report_death(r, "dead before the collective reached it");
      return std::nullopt;
    }
    pollfd p{ctl_fds_[r], POLLIN, 0};
    const int rc = ::poll(&p, 1, kPollSliceMs);
    if (rc < 0) {
      PX_ASSERT_MSG(errno == EINTR, "bootstrap: poll() failed");
      continue;
    }
    if (rc == 0) continue;  // re-check the dead mask, poll again
    auto rec = try_recv_record_any(ctl_fds_[r]);
    if (!rec.has_value()) {
      report_death(r, "control socket EOF mid-collective");
      return std::nullopt;
    }
    PX_ASSERT_MSG(rec->first == tag,
                  "bootstrap: unexpected control record tag (collective "
                  "calls out of order?)");
    return std::move(rec->second);
  }
}

void bootstrap::send_to_live(std::uint32_t r, std::uint8_t tag,
                             std::span<const std::byte> payload) {
  if (members_.is_dead(r)) {
    report_death(r, "dead before the collective reached it");
  } else if (!try_send_record(ctl_fds_[r], tag, payload)) {
    report_death(r, "control socket reset mid-collective");
  }
}

bootstrap::exchange_result bootstrap::exchange(
    const std::string& my_endpoint, std::span<const std::byte> root_blob) {
  exchange_result out;
  // Boot has no heartbeats yet, so the accept loops are bounded by the
  // connect budget instead: a rank that dies before saying hello turns
  // into a clean root-side diagnostic and nonzero exit, never a hang (and
  // the root's exit EOFs every other rank out in turn).
  const auto boot_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(params_.connect_timeout_ms);
  const auto accept_or_die = [&](const char* phase) {
    for (;;) {
      pollfd p{listen_fd_, POLLIN, 0};
      const int rc = ::poll(&p, 1, kPollSliceMs);
      if (rc < 0) {
        PX_ASSERT_MSG(errno == EINTR, "bootstrap: poll() failed");
        continue;
      }
      if (rc > 0) {
        const int fd = accept(listen_fd_, nullptr, nullptr);
        PX_ASSERT_MSG(fd >= 0, "bootstrap: accept() failed");
        return fd;
      }
      if (std::chrono::steady_clock::now() >= boot_deadline) {
        PX_LOG_ERROR(
            "bootstrap: gave up waiting for %s after %llu ms -- a rank "
            "died (or never started) during boot; exiting",
            phase,
            static_cast<unsigned long long>(params_.connect_timeout_ms));
        std::_Exit(1);
      }
    }
  };
  if (params_.rank == 0) {
    // Collect every rank's hello; the launcher may start them in any
    // order, so accept until all are in.
    std::vector<std::string> endpoints(params_.nranks);
    endpoints[0] = my_endpoint;
    for (std::uint32_t seen = 1; seen < params_.nranks;) {
      const int fd = accept_or_die("rank hellos");
      const auto hello_rec = try_recv_record_any(fd);
      if (!hello_rec.has_value()) {
        PX_LOG_ERROR(
            "bootstrap: a rank's control connection died mid-hello; "
            "exiting");
        std::_Exit(1);
      }
      PX_ASSERT_MSG(hello_rec->first == kTagHello,
                    "bootstrap: unexpected control record tag (collective "
                    "calls out of order?)");
      const auto& hello = hello_rec->second;
      PX_ASSERT_MSG(hello.size() > 4, "bootstrap: malformed hello");
      const std::uint32_t r = read_u32(hello.data());
      PX_ASSERT_MSG(r >= 1 && r < params_.nranks,
                    "bootstrap: hello rank out of range");
      PX_ASSERT_MSG(ctl_fds_[r] < 0, "bootstrap: duplicate rank hello "
                                      "(two processes share a rank?)");
      ctl_fds_[r] = fd;
      endpoints[r].assign(
          reinterpret_cast<const char*>(hello.data()) + 4,
          hello.size() - 4);
      seen += 1;
    }
    // Broadcast the table + the root param blob: endpoints are
    // newline-joined (addresses never contain '\n').
    std::vector<std::byte> reply;
    std::string joined;
    for (std::uint32_t r = 0; r < params_.nranks; ++r) {
      joined += endpoints[r];
      joined += '\n';
    }
    append_u32(reply, static_cast<std::uint32_t>(joined.size()));
    for (const char c : joined) reply.push_back(static_cast<std::byte>(c));
    reply.insert(reply.end(), root_blob.begin(), root_blob.end());
    for (std::uint32_t r = 1; r < params_.nranks; ++r) {
      send_record(ctl_fds_[r], kTagTable, reply);
    }
    out.endpoints = std::move(endpoints);
    out.params_blob.assign(root_blob.begin(), root_blob.end());
    PX_LOG_INFO("bootstrap: %u ranks registered", params_.nranks);
  } else {
    std::vector<std::byte> hello;
    append_u32(hello, params_.rank);
    for (const char c : my_endpoint) {
      hello.push_back(static_cast<std::byte>(c));
    }
    // Rank 0 exits with its own diagnostic when any rank dies during
    // boot; losing it here is the echo of that, and fatal.
    const auto reply = ask_root(kTagHello, hello, kTagTable);
    PX_ASSERT_MSG(reply.size() >= 4, "bootstrap: malformed table");
    const std::uint32_t joined_len = read_u32(reply.data());
    PX_ASSERT_MSG(4 + joined_len <= reply.size(),
                  "bootstrap: malformed table");
    std::string joined(reinterpret_cast<const char*>(reply.data()) + 4,
                       joined_len);
    std::size_t pos = 0;
    for (std::uint32_t r = 0; r < params_.nranks; ++r) {
      const std::size_t nl = joined.find('\n', pos);
      PX_ASSERT_MSG(nl != std::string::npos, "bootstrap: short table");
      out.endpoints.push_back(joined.substr(pos, nl - pos));
      pos = nl + 1;
    }
    out.params_blob.assign(reply.begin() + 4 + joined_len, reply.end());
  }

  // Open the dedicated heartbeat channel (a second connection per rank)
  // and start the failure detector.  Kept off the main control sockets so
  // heartbeats never interleave with in-order collective records.
  if (params_.nranks > 1) {
    if (params_.rank == 0) {
      for (std::uint32_t seen = 1; seen < params_.nranks; ++seen) {
        const int fd = accept_or_die("heartbeat channels");
        const auto hb_hello = try_recv_record_any(fd);
        if (!hb_hello.has_value()) {
          PX_LOG_ERROR(
              "bootstrap: a rank died opening its heartbeat channel; "
              "exiting");
          std::_Exit(1);
        }
        PX_ASSERT_MSG(
            hb_hello->first == kTagHbHello && hb_hello->second.size() == 4,
            "bootstrap: malformed heartbeat hello");
        const std::uint32_t r = read_u32(hb_hello->second.data());
        PX_ASSERT_MSG(r >= 1 && r < params_.nranks && hb_fds_[r] < 0,
                      "bootstrap: heartbeat hello rank out of range");
        hb_fds_[r] = fd;
      }
    } else {
      const auto [host, port] = detail::split_host_port_impl(params_.root);
      hb_fds_[0] = detail::dial(host, port, params_.connect_timeout_ms);
      PX_ASSERT_MSG(hb_fds_[0] >= 0,
                    "bootstrap: cannot open heartbeat channel to rank 0");
      std::vector<std::byte> hb_hello;
      append_u32(hb_hello, params_.rank);
      send_record(hb_fds_[0], kTagHbHello, hb_hello);
    }
    members_.start(util::now_ns());
    hb_thread_ = std::thread([this] { hb_loop(); });
  }
  return out;
}

void bootstrap::hb_loop() {
  const int slice_ms = static_cast<int>(
      std::min<std::uint64_t>(params_.heartbeat_interval_us / 1000 + 1, 50));
  std::vector<pollfd> fds;
  std::vector<std::uint32_t> fd_rank;
  for (;;) {
    const std::uint64_t watched = members_.watched();
    if (watched == 0) return;  // shutting down, or nobody left to watch
    fds.clear();
    fd_rank.clear();
    for (std::uint32_t r = 0; r < params_.nranks; ++r) {
      if (((watched >> r) & 1u) == 0) continue;
      fds.push_back({hb_fds_[r], POLLIN, 0});
      fd_rank.push_back(r);
    }
    const int rc = ::poll(fds.data(), fds.size(), slice_ms);
    if (rc < 0 && errno != EINTR) return;
    const std::int64_t now = util::now_ns();
    for (std::size_t i = 0; rc > 0 && i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const std::uint32_t r = fd_rank[i];
      const auto rec = try_recv_record_any(hb_fds_[r]);
      if (!rec.has_value()) {
        report_death(r, "heartbeat channel EOF");
      } else if (rec->first == kTagHb) {
        members_.heard(r, now);
      } else if (rec->first == kTagGoodbye) {
        members_.goodbye(r);
      } else if (rec->first == kTagPeerDown) {
        // Wire-supplied rank: bounds-checked before it indexes the mask.
        PX_ASSERT_MSG(rec->second.size() == 4,
                      "bootstrap: malformed peer-down record");
        const std::uint32_t dead = read_u32(rec->second.data());
        if (dead < params_.nranks) {
          report_death(dead,
                       params_.rank == 0 ? "reported by a survivor"
                                         : "announced dead by rank 0",
                       r);
        }
      }
    }
    if (members_.heartbeat_due(now)) {
      // A verdict takes hb_send_mutex_ to tell its peers, so the failed
      // sends are judged after the fan-out lock drops.
      std::uint64_t reset = 0;
      {
        std::lock_guard lock(hb_send_mutex_);
        for (const std::uint32_t r : fd_rank) {
          if (members_.is_dead(r)) continue;
          if (!try_send_record(hb_fds_[r], kTagHb, {})) reset |= 1ull << r;
        }
      }
      for (const std::uint32_t r : fd_rank) {
        if ((reset >> r) & 1u) report_death(r, "heartbeat channel reset");
      }
    }
    const std::uint64_t expired = members_.expired(now);
    for (const std::uint32_t r : fd_rank) {
      if ((expired >> r) & 1u) report_death(r, "heartbeat lease expired");
    }
  }
}

void bootstrap::barrier(std::uint64_t digest) {
  std::vector<std::byte> payload;
  append_u64(payload, digest);
  if (params_.rank == 0) {
    for (std::uint32_t r = 1; r < params_.nranks; ++r) {
      const auto rec = recv_from_live(r, kTagBarrier);
      if (!rec.has_value()) continue;  // casualty: the barrier shrinks
      PX_ASSERT(rec->size() == 8);
      PX_ASSERT_MSG(digest == 0 || read_u64(rec->data()) == digest,
                    "bootstrap: ranks disagree on the boot-time schema "
                    "digest (counter registration drift between "
                    "processes?)");
    }
    for (std::uint32_t r = 1; r < params_.nranks; ++r) {
      send_to_live(r, kTagBarrier, payload);
    }
  } else {
    (void)ask_root(kTagBarrier, payload, kTagBarrier);
  }
}

bool bootstrap::quiesce_round(bool locally_stable, std::uint64_t activity,
                              std::uint64_t parcels_sent_remote,
                              std::uint64_t parcels_delivered_remote) {
  constexpr std::size_t kFields = quiescence::kFields;
  const std::uint64_t row[kFields] = {
      locally_stable ? 1u : 0u, activity, parcels_sent_remote,
      parcels_delivered_remote, members_.dead_mask()};

  if (params_.rank != 0) {
    std::vector<std::byte> report;
    for (const std::uint64_t f : row) append_u64(report, f);
    const auto verdict = ask_root(kTagQuiesce, report, kTagVerdict);
    return verdict.size() == 1 && std::to_integer<std::uint8_t>(verdict[0]);
  }

  // Root: gather the live ranks (self included) into one rank-ordered
  // vector.  A rank already confirmed dead contributes a constant all-zero
  // row without being polled, so once the membership stabilizes the
  // two-identical-gathers rule works exactly as in the full machine; the
  // round a casualty drops out, its row changes and forces at least one
  // more confirming round.
  std::vector<std::uint64_t> rows(params_.nranks * kFields, 0);
  std::copy(row, row + kFields, rows.begin());
  for (std::uint32_t r = 1; r < params_.nranks; ++r) {
    if (members_.is_dead(r)) continue;
    const auto rec = recv_from_live(r, kTagQuiesce);
    if (!rec.has_value()) continue;  // died mid-gather: a zero row
    PX_ASSERT(rec->size() == kFields * 8);
    for (std::size_t f = 0; f < kFields; ++f) {
      rows[r * kFields + f] = read_u64(rec->data() + f * 8);
    }
  }
  const std::uint64_t dead = members_.dead_mask();
  const quiescence::verdict v = quiescence_.decide(rows, dead);
  if (v.stuck) {
    // The machine spins without converging: say which term of the verdict
    // fails, with what numbers.
    PX_LOG_WARN("quiesce not converging after %llu rounds: stable=%d "
                "masks=%d shrank=%d sent=%llu delivered=%llu",
                static_cast<unsigned long long>(v.rounds), v.stable ? 1 : 0,
                v.masks_agree ? 1 : 0, v.shrank ? 1 : 0,
                static_cast<unsigned long long>(v.sent),
                static_cast<unsigned long long>(v.delivered));
    for (std::uint32_t r = 0; r < params_.nranks; ++r) {
      if ((dead >> r) & 1u) continue;
      const std::uint64_t* g = rows.data() + r * kFields;
      PX_LOG_WARN("  rank %u: stable=%llu activity=%llu sent=%llu "
                  "delivered=%llu mask=%llx",
                  r, static_cast<unsigned long long>(g[0]),
                  static_cast<unsigned long long>(g[1]),
                  static_cast<unsigned long long>(g[2]),
                  static_cast<unsigned long long>(g[3]),
                  static_cast<unsigned long long>(g[4]));
    }
  }
  const std::byte verdict{static_cast<std::uint8_t>(v.quiescent ? 1 : 0)};
  for (std::uint32_t r = 1; r < params_.nranks; ++r) {
    send_to_live(r, kTagVerdict, std::span(&verdict, 1));
  }
  return v.quiescent;
}

std::int64_t bootstrap::clock_sync() {
  constexpr int kSamples = 5;
  if (params_.rank == 0) {
    // Serve each rank's pings in rank order; every rank has a dedicated
    // control socket, so serializing here just paces the dialers.
    for (std::uint32_t r = 1; r < params_.nranks; ++r) {
      for (int s = 0; s < kSamples; ++s) {
        (void)recv_record(ctl_fds_[r], kTagClockPing);
        std::vector<std::byte> pong;
        append_u64(pong, static_cast<std::uint64_t>(util::now_ns()));
        send_record(ctl_fds_[r], kTagClockPong, pong);
      }
    }
    return 0;
  }
  std::int64_t best_rtt = 0;
  std::int64_t best_offset = 0;
  for (int s = 0; s < kSamples; ++s) {
    const std::int64_t t0 = util::now_ns();
    const auto pong = ask_root(kTagClockPing, {}, kTagClockPong);
    const std::int64_t t1 = util::now_ns();
    if (pong.size() != 8) return 0;  // shutting down
    const auto t_root = static_cast<std::int64_t>(read_u64(pong.data()));
    const std::int64_t rtt = t1 - t0;
    // The midpoint estimate is most trustworthy on the tightest round
    // trip (least asymmetric queueing).
    if (s == 0 || rtt < best_rtt) {
      best_rtt = rtt;
      best_offset = (t0 + t1) / 2 - t_root;
    }
  }
  return best_offset;
}

}  // namespace px::net
