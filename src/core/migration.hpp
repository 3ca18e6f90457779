// The migration handoff as a plain state machine (docs/agas.md).
//
// `migration` owns the per-gid table and every decision of the one
// handoff; it owns no thread, socket or clock and sends no parcel.  Its
// driver (runtime::migrate_gid_async and runtime::migrate_implant, in
// runtime_migration.cpp) moves the objects, talks to AGAS and ships the
// record, and asks this class at each step what to do next, so a test can
// drive every handoff decision with hand-written sequences.
//
// A gid enters the table when it is tagged with a migratable type or
// claimed by a handoff, and leaves it when it has neither.  Gids are kept
// as their 64-bit encoding (gas::gid::bits) so the core stays free of the
// directory's types.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/spinlock.hpp"

namespace px::core {

class migration {
 public:
  // What the driver does with a claimed gid.
  enum class step : std::uint8_t {
    reject,  // the claim is already released; report failure
    move,    // same process: hand the object over, rebind, retire
    ship,    // across processes: send the record, retire on the ack
  };

  // (1) Claim `gid` for a move.  A non-data gid, or one already in flight
  // here, is rejected (nullopt): a concurrent second move is refused, not
  // queued.  Otherwise the gid is in flight and its migratable type comes
  // back ("" when untagged).
  std::optional<std::string> claim(std::uint64_t gid, bool data);

  // (2) Under the claim, with what the driver saw: whether the source
  // still holds the object, whether the destination is in this process,
  // and whether the claimed type has a registered codec.  A stale source,
  // or an untagged or codec-less move across processes, is rejected and
  // the claim released.
  step route(std::uint64_t gid, bool resident, bool same_process,
             bool codec);

  // (3) The source copy is gone: end the claim.  A retire that `crossed`
  // processes also forgets the type; the destination re-tagged on implant,
  // and keeping ours would grow the table with every object that ever
  // passed through.
  void retire(std::uint64_t gid, bool crossed);

  // Receiving side of a cross-process move: claim `gid` and tag it with
  // `type` before the directory flips, so no onward move can start until
  // the home has acknowledged this one (a chained A->B->C handoff could
  // otherwise reach the home out of order).  False, with nothing changed,
  // when the gid is already mid-handoff here.
  bool implant(std::uint64_t gid, std::string type);
  // The home acknowledged the flip: the gid may move on.
  void implanted(std::uint64_t gid);

  // Records the migratable type a gid was created under.
  void tag(std::uint64_t gid, std::string type);

  // Every gid with a migratable type, mid-handoff or not.
  std::vector<std::uint64_t> tagged() const;

 private:
  struct entry {
    std::string type;
    bool in_flight = false;
  };
  using table = std::unordered_map<std::uint64_t, entry>;
  // Ends a claim under lock_; `forget` drops the type too.
  void end_claim(table::iterator it, bool forget);

  mutable util::spinlock lock_;
  table table_;
};

}  // namespace px::core
