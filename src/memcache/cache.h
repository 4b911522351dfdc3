// The memcached storage engine: hash table + per-slab-class LRU + lazy
// expiration, with real bytes stored per item.
//
// Semantics follow memcached 1.2 (the daemon the paper deploys), for the
// commands IMCa sends:
//   * keys are at most 250 bytes, items at most 1 MB including overhead;
//   * set always stores; add only if absent; cas only on a matching id;
//   * expired items are removed lazily, on the access that finds them;
//   * when the memory limit is hit, the least-recently-used item *of the
//     same slab class* is evicted to make room ("MCDs are self-managing",
//     paper §4.4).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"
#include "common/errc.h"
#include "common/expected.h"
#include "common/units.h"
#include "memcache/slab.h"

namespace imca::memcache {

inline constexpr std::uint64_t kMaxKeyLen = 250;

// Reserved item-flags bit marking write-back dirty data (DESIGN.md §5j).
// Items carrying it survive a clean flush ("flush_all clean"), which is what
// a rejoin purge issues: a revived daemon must drop every cacheable copy it
// could serve stale, but dirty items are the *only* copy of acked bytes and
// may never be purged by a reader's probe. A crashed daemon restarts empty
// regardless, so the bit only matters on daemons that stayed up.
inline constexpr std::uint32_t kWbDirtyFlag = 0x40000000u;

struct Value {
  std::uint32_t flags = 0;
  // Shared segments: a get hands back views of the stored item, and a store
  // adopts the request's segments — the slab never re-copies payload bytes.
  Buffer data;
  // Unique per stored version; returned by gets and checked by cas.
  std::uint64_t cas = 0;
};

struct CacheStats {
  std::uint64_t cmd_get = 0;
  std::uint64_t cmd_set = 0;
  std::uint64_t get_hits = 0;
  std::uint64_t get_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t expired_unfetched = 0;
  std::uint64_t curr_items = 0;
  std::uint64_t bytes = 0;  // key+value+overhead of live items
};

class McCache {
 public:
  explicit McCache(std::uint64_t memory_limit)
      : slabs_(memory_limit) {}

  McCache(const McCache&) = delete;
  McCache& operator=(const McCache&) = delete;

  // Store unconditionally. `expire_at` of 0 means "never" (IMCa's usage).
  Expected<void> set(std::string_view key, std::uint32_t flags,
                     SimTime expire_at, Buffer data,
                     SimTime now);

  // Store only if the key is absent.
  Expected<void> add(std::string_view key, std::uint32_t flags,
                     SimTime expire_at, Buffer data, SimTime now);

  // Fetch; refreshes LRU position. kNoEnt on miss or lazy expiry.
  Expected<Value> get(std::string_view key, SimTime now);
  // The same lookup, with the same stats and LRU effects, handing back the
  // stored value in place instead of a copy of its view list (the daemon's
  // multi-get path). nullptr on a miss. Valid until the next call that
  // stores, deletes or flushes.
  const Value* get_ref(std::string_view key, SimTime now);

  // Compare-and-swap: store only if the item's current cas id equals
  // `expected_cas`. kNoEnt if absent, kBusy ("EXISTS") on a cas mismatch.
  Expected<void> cas(std::string_view key, std::uint32_t flags,
                     SimTime expire_at, Buffer data,
                     std::uint64_t expected_cas, SimTime now);

  Expected<void> del(std::string_view key);

  // Drop everything: a crashed daemon restarts empty through this.
  void flush_all();

  // Drop every item except those whose flags carry `keep_mask` bits — the
  // clean flush a rejoin purge uses so write-back dirty replicas survive.
  void flush_clean(std::uint32_t keep_mask = kWbDirtyFlag);

  const CacheStats& stats() const noexcept { return stats_; }
  const SlabAllocator& slabs() const noexcept { return slabs_; }
  std::size_t item_count() const noexcept { return items_.size(); }

 private:
  // Stored under the map's own key: `key` views the map node's string, which
  // never moves (unordered_map nodes are stable under rehash).
  struct Item {
    std::string_view key;
    SimTime expire_at = 0;
    Value value;
    std::uint32_t slab_class = 0;
    // Links of the item's slab-class LRU list, threaded through the items.
    Item* newer = nullptr;
    Item* older = nullptr;
  };
  // Transparent hashing: lookups take the caller's string_view as is.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view k) const noexcept {
      return std::hash<std::string_view>{}(k);
    }
  };
  using ItemMap =
      std::unordered_map<std::string, Item, KeyHash, std::equal_to<>>;
  // One slab class's LRU: `newest` is the most recently used item, `oldest`
  // the next eviction victim.
  struct Lru {
    Item* newest = nullptr;
    Item* oldest = nullptr;
  };

  static std::uint64_t total_size(std::string_view key, std::uint64_t value_len) {
    return key.size() + value_len + kItemOverhead;
  }

  Expected<void> store(std::string_view key, std::uint32_t flags,
                       SimTime expire_at, Buffer data, SimTime now);
  // The item under `key` if it exists and is not expired; an expired item
  // is reaped and reads as absent (end()).
  ItemMap::iterator find_live(std::string_view key, SimTime now);
  // Drop the item's slab chunk, LRU links and accounting; it stays mapped.
  void release(Item& item);
  void erase(ItemMap::iterator it, bool evicted, bool expired);
  void link_newest(Item& item);
  void unlink(Item& item);
  // Make a chunk of `cls` available, evicting that class's LRU if needed.
  Expected<void> claim_chunk(std::uint32_t cls);

  SlabAllocator slabs_;
  std::uint64_t next_cas_ = 1;
  ItemMap items_;
  std::vector<Lru> lru_;  // indexed by slab class
  CacheStats stats_;
};

}  // namespace imca::memcache
