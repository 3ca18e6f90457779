// Two in-process endpoints of one multi-process backend (tcp or shm):
// `a` is rank 0, `b` rank 1.  Both live in this process, so connect()
// brings them up from two threads: shm's creator side waits for its peer
// to attach, and tcp's rank 0 accepts while rank 1 dials.
#pragma once

#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/shm_transport.hpp"
#include "net/tcp_transport.hpp"

namespace px::test {

template <typename Transport>
struct transport_pair {
  using params_type = std::remove_cvref_t<decltype(
      std::declval<const Transport&>().params())>;

  std::unique_ptr<Transport> a;
  std::unique_ptr<Transport> b;

  explicit transport_pair(params_type p = {}) {
    p.nranks = 2;
    p.rank = 0;
    a = std::make_unique<Transport>(p);
    p.rank = 1;
    b = std::make_unique<Transport>(p);
  }

  void connect() {
    const std::vector<std::string> table = {a->listen_address(),
                                            b->listen_address()};
    std::thread ta([&] { a->connect_peers(table); });
    b->connect_peers(table);
    ta.join();
  }

  // Tearing the pair down is an orderly shutdown for whichever ends are
  // left (a test may have destroyed one to play a dying rank).
  ~transport_pair() {
    if (a != nullptr) a->expect_peer_disconnects();
    if (b != nullptr) b->expect_peer_disconnects();
  }
};

using shm_pair = transport_pair<net::shm_transport>;
using tcp_pair = transport_pair<net::tcp_transport>;

}  // namespace px::test
