// Remote counter interrogation: any locality reads any other locality's
// counters with plain parcels.
//
// A counter gid is hardware-kind, so its home locality is its permanent
// owner; query_counter ships a typed action parcel to that home (paying
// fabric latency like any other parcel — introspection enjoys no magic
// side channel) where the registry samples the live value, and the result
// flows back through the standard continuation/future machinery.  This is
// the paper's "remotely identified ... hardware resources" made useful:
// the counters *are* the instrument panel of the machine.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "core/locality.hpp"
#include "gas/gid.hpp"
#include "lco/lco.hpp"

namespace px::introspect {

// Value returned for a gid that names no counter at its home locality
// (e.g. queried after meaning something else): the query still completes.
inline constexpr std::uint64_t no_such_counter = ~0ull;

// Reads counter `id` at its home locality.  `from` is the asking locality;
// the returned future is satisfied by the reply parcel.
lco::future<std::uint64_t> query_counter(core::locality& from, gas::gid id);

// Callback form: same px.query_counter round trip, but the reply fires
// `cb(value)` on the delivery thread instead of satisfying a future — for
// callers that must not block (the distributed rebalancer samples from
// the transport progress thread).  `cb` must be cheap and non-blocking.
void query_counter_cb(core::locality& from, gas::gid id,
                      std::function<void(std::uint64_t)> cb);

// Path-addressed form: resolves the hierarchical path in the (shared)
// symbolic name space first; nullopt when the path names no counter.
std::optional<lco::future<std::uint64_t>> query_counter(core::locality& from,
                                                        std::string_view path);

// Quantile-addressed read of a *histogram* counter (registry::add_hist):
// ships `q` to the counter's home locality over the px.query_hist inline
// action and returns the distribution's value at that quantile, rounded to
// whole units (ns for the runtime's latency hists).  Replies
// no_such_counter when the gid names no histogram counter at its home —
// scalar counters are not quantile-addressable.
lco::future<std::uint64_t> query_hist(core::locality& from, gas::gid id,
                                      double q);

// Path-addressed form, like query_counter's.
std::optional<lco::future<std::uint64_t>> query_hist(core::locality& from,
                                                     std::string_view path,
                                                     double q);

}  // namespace px::introspect
