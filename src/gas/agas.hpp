// Active Global Address Space: gid -> current-owner resolution with
// migration support.
//
// The authority for a gid is the *directory shard of its home locality*
// (encoded in the gid).  Every locality keeps a private resolution cache;
// caches are not coherently invalidated on migration — a parcel routed on a
// stale cache arrives at the old owner, which detects the miss and forwards
// (the runtime layer does the forwarding; this class supplies authoritative
// re-resolution and cache refresh).  This is the paper's "efficient address
// translation ... in the presence of dynamic object distribution" without
// requiring global coherence.
//
// Distributed mode (PR 5): every process constructs the same shard/cache
// geometry, but only the shard of its *own rank* is populated — the home
// directory for a gid physically lives in the home rank's process, and it
// is the single authority for that gid machine-wide.  The local cache slot
// of the process's rank doubles as its *forwarding cache* for
// remotely-homed gids: entries arrive as owner hints piggybacked by home
// ranks when they forward a parcel (gas/resolve.hpp), and are only ever
// hints — a parcel routed on a stale one lands at the old owner and heals
// through home forwarding.
// cached()/note_owner() are that hint surface; the directory methods
// (bind/unbind/migrate/resolve_authoritative) must only be called for gids
// homed at this process's rank.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "gas/gid.hpp"
#include "util/cache.hpp"
#include "util/spinlock.hpp"

namespace px::gas {

struct agas_stats {
  std::uint64_t binds = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;  // authoritative directory lookups
  std::uint64_t migrations = 0;
  std::uint64_t stale_refreshes = 0;
  std::uint64_t hint_evictions = 0;  // cold hints aged out of a full cache
};

class agas {
 public:
  explicit agas(std::size_t localities);

  std::size_t localities() const noexcept { return shards_.size(); }

  // Allocates a fresh gid homed at `home` (directory entry not yet bound).
  gid allocate(gid_kind kind, locality_id home);

  // Binds gid to its initial owner locality.  Usually owner == home, but
  // the model permits binding elsewhere from the start.
  void bind(gid id, locality_id owner);

  // Removes the directory entry (object destroyed).
  void unbind(gid id);

  // Resolution as seen from `asking` locality: cache first, then the home
  // directory.  Returns nullopt for unbound gids.
  std::optional<locality_id> resolve(locality_id asking, gid id);

  // Bypasses the cache, consults the home directory, refreshes the asking
  // locality's cache.  Used by the runtime when a parcel arrived at a
  // locality that no longer owns the object (stale-cache forward).
  std::optional<locality_id> resolve_authoritative(locality_id asking, gid id);

  // Moves ownership to `new_owner` (version bump).  Stale caches remain
  // until lazily refreshed.
  void migrate(gid id, locality_id new_owner);

  // Tolerant upsert: migrate when the entry exists, bind when it does not.
  // Used for post-rank-loss re-homing — the successor rank adopts the
  // casualty's directory shard starting from empty, so survivors'
  // re-registrations must not trip the bound-twice/unbound asserts.
  void rebind(gid id, locality_id owner);

  // Directory repair after rank loss: erase every entry in `home`'s shard
  // whose owner is `dead` (those objects died with the casualty's process)
  // and return the erased gids so the runtime can report them lost.
  std::vector<gid> drop_entries_owned_by(locality_id home, locality_id dead);

  // Forwarding-cache repair after rank loss: drop every hint in `asking`'s
  // cache that points at `dead`.  Returns how many were purged.
  std::size_t purge_owner_hints(locality_id asking, locality_id dead);

  // Drops a cached translation (e.g. after the runtime observed it stale).
  void invalidate_cache(locality_id asking, gid id);

  // Cache-only lookup: the hint `asking` holds for `id`, without touching
  // the home directory (which may live in another process).  Counts as a
  // cache hit when present; absence is not counted as a miss — the caller
  // falls back to home routing, not to an authoritative lookup here.
  std::optional<locality_id> cached(locality_id asking, gid id);

  // Installs/overwrites a forwarding hint in `asking`'s cache (an owner
  // hint learned from the wire).  Overwrites count as stale_refreshes —
  // the cache held a translation that just got corrected.
  void note_owner(locality_id asking, gid id, locality_id owner);

  agas_stats stats() const;

 private:
  struct directory_entry {
    locality_id owner = invalid_locality;
    std::uint64_t version = 0;
  };

  // One shard per home locality; the shard holds every gid homed there.
  struct shard {
    util::spinlock lock;
    std::unordered_map<gid, directory_entry> entries;
    std::atomic<std::uint64_t> next_sequence{1};
  };

  // Per-locality private cache.  Bounded: hints carry a heat that grows on
  // use; when the cache is full a rate-limited aging scan halves every heat
  // in place and evicts the entries that reach zero (mirroring the parcel
  // heat table in core/locality).  A hint that cannot find room is simply
  // dropped — the caller falls back to home routing, which stays correct.
  struct hint {
    locality_id owner = invalid_locality;
    std::uint32_t heat = 1;
  };
  struct cache {
    util::spinlock lock;
    std::unordered_map<gid, hint> entries;
    std::int64_t last_age_ns = 0;
  };

  static constexpr std::size_t kMaxCacheEntries = 1024;
  static constexpr std::int64_t kCacheAgeIntervalNs = 1'000'000;  // 1 ms
  static constexpr std::uint32_t kMaxHintHeat = 16;

  enum class hint_install { inserted, refreshed_same, refreshed_changed,
                            dropped };
  // Requires c.lock held.  Installs/refreshes the hint, running the aging
  // eviction scan if the cache is full; reports what happened so callers
  // can keep their distinct stale_refreshes accounting.
  hint_install install_hint_locked(cache& c, gid id, locality_id owner);

  shard& home_shard(gid id);
  const shard& home_shard(gid id) const;

  std::vector<util::padded<shard>> shards_;
  std::vector<util::padded<cache>> caches_;

  std::atomic<std::uint64_t> binds_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> migrations_{0};
  std::atomic<std::uint64_t> stale_refreshes_{0};
  std::atomic<std::uint64_t> hint_evictions_{0};
};

}  // namespace px::gas
