// Cross-process AGAS resolution: the owner-hint wire protocol.
//
// A gid's home directory lives in its home rank's process (agas.hpp), so a
// sender on another rank has only two sources of truth about the current
// owner: route to the *home* (always correct, possibly one forward hop
// stale) or its local *forwarding cache* of owner hints.  One parcel keeps
// the caches converging without any coherence traffic:
//
//   px.agas_hint      owner hint — when a home rank forwards a parcel for
//                     an object that migrated away, it piggybacks the
//                     current owner back to the parcel's source so that
//                     sender converges on direct routing;
//   px.agas_hint with owner == invalid_locality
//                     hint invalidation — when a *stale* owner receives a
//                     parcel for an object that already moved on, it tells
//                     the sender to drop its cached translation (the next
//                     send routes via home and picks up a fresh hint).
//
// Hints are only ever hints: installing a stale one costs a bounded
// forward (runtime::route's max_forwards budget), never correctness.
#pragma once

#include "gas/gid.hpp"

namespace px::core {
class locality;
}

namespace px::gas {

// Ships an owner hint (or an invalidation, owner == invalid_locality) to
// `to_rank`'s forwarding cache.  Fire-and-forget.
void send_owner_hint(core::locality& from, locality_id to_rank, gid id,
                     locality_id owner);

}  // namespace px::gas
