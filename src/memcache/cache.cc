#include "memcache/cache.h"

#include <cassert>

namespace imca::memcache {

void McCache::link_newest(Item& item) {
  Lru& lru = lru_[item.slab_class];
  item.newer = nullptr;
  item.older = lru.newest;
  if (lru.newest != nullptr) {
    lru.newest->newer = &item;
  } else {
    lru.oldest = &item;
  }
  lru.newest = &item;
}

void McCache::unlink(Item& item) {
  Lru& lru = lru_[item.slab_class];
  if (item.newer != nullptr) {
    item.newer->older = item.older;
  } else {
    lru.newest = item.older;
  }
  if (item.older != nullptr) {
    item.older->newer = item.newer;
  } else {
    lru.oldest = item.newer;
  }
  item.newer = item.older = nullptr;
}

McCache::ItemMap::iterator McCache::find_live(std::string_view key,
                                              SimTime now) {
  auto it = items_.find(key);
  if (it == items_.end()) return it;
  if (it->second.expire_at != 0 && it->second.expire_at <= now) {
    erase(it, /*evicted=*/false, /*expired=*/true);
    return items_.end();
  }
  return it;
}

void McCache::release(Item& item) {
  unlink(item);
  slabs_.free(item.slab_class);
  stats_.bytes -= total_size(item.key, item.value.data.size());
  --stats_.curr_items;
}

void McCache::erase(ItemMap::iterator it, bool evicted, bool expired) {
  release(it->second);
  if (evicted) ++stats_.evictions;
  if (expired) ++stats_.expired_unfetched;
  items_.erase(it);
}

Expected<void> McCache::claim_chunk(std::uint32_t cls) {
  if (lru_.size() <= cls) lru_.resize(cls + 1);
  auto r = slabs_.alloc(cls);
  if (r) return {};
  if (r.error() != Errc::kNoSpc) return r.error();
  // Memory limit reached: evict the least-recently-used item of this class.
  const Item* victim = lru_[cls].oldest;
  if (victim == nullptr) return Errc::kNoSpc;  // no pages and no victims
  auto it = items_.find(victim->key);
  assert(it != items_.end());
  erase(it, /*evicted=*/true, /*expired=*/false);
  return slabs_.alloc(cls);
}

Expected<void> McCache::store(std::string_view key, std::uint32_t flags,
                              SimTime expire_at, Buffer data, SimTime now) {
  if (key.size() > kMaxKeyLen) return Errc::kKeyTooLong;
  auto cls = slabs_.class_for(total_size(key, data.size()));
  if (!cls) return cls.error();

  // set overwrites: an existing item gives up its chunk and LRU place before
  // the claim, exactly as deleting it first would, and its map node is
  // reused for the new value.
  auto it = items_.find(key);
  const bool existed = it != items_.end();
  if (existed) release(it->second);
  if (auto c = claim_chunk(*cls); !c) {
    if (existed) items_.erase(it);
    return c.error();
  }
  if (!existed) {
    it = items_.try_emplace(std::string(key)).first;
    it->second.key = it->first;
  }

  Item& item = it->second;
  item.expire_at = expire_at;
  item.value = Value{flags, std::move(data), next_cas_++};
  item.slab_class = *cls;
  link_newest(item);

  stats_.bytes += total_size(key, item.value.data.size());
  ++stats_.curr_items;
  (void)now;
  return {};
}

Expected<void> McCache::set(std::string_view key, std::uint32_t flags,
                            SimTime expire_at, Buffer data, SimTime now) {
  ++stats_.cmd_set;
  return store(key, flags, expire_at, std::move(data), now);
}

Expected<void> McCache::add(std::string_view key, std::uint32_t flags,
                            SimTime expire_at, Buffer data, SimTime now) {
  ++stats_.cmd_set;
  if (find_live(key, now) != items_.end()) return Errc::kNotStored;
  return store(key, flags, expire_at, std::move(data), now);
}

const Value* McCache::get_ref(std::string_view key, SimTime now) {
  ++stats_.cmd_get;
  auto it = find_live(key, now);
  if (it == items_.end()) {
    ++stats_.get_misses;
    return nullptr;
  }
  Item& item = it->second;
  if (lru_[item.slab_class].newest != &item) {  // refresh LRU position
    unlink(item);
    link_newest(item);
  }
  ++stats_.get_hits;
  return &item.value;
}

Expected<Value> McCache::get(std::string_view key, SimTime now) {
  const Value* v = get_ref(key, now);
  if (v == nullptr) return Errc::kNoEnt;
  return *v;
}

Expected<void> McCache::cas(std::string_view key, std::uint32_t flags,
                            SimTime expire_at, Buffer data,
                            std::uint64_t expected_cas, SimTime now) {
  ++stats_.cmd_set;
  auto it = find_live(key, now);
  if (it == items_.end()) return Errc::kNoEnt;  // NOT_FOUND
  if (it->second.value.cas != expected_cas) return Errc::kBusy;  // EXISTS
  return store(key, flags, expire_at, std::move(data), now);
}

Expected<void> McCache::del(std::string_view key) {
  auto it = items_.find(key);
  if (it == items_.end()) return Errc::kNoEnt;
  erase(it, false, false);
  return {};
}

void McCache::flush_all() {
  while (!items_.empty()) {
    erase(items_.begin(), false, false);
  }
}

void McCache::flush_clean(std::uint32_t keep_mask) {
  for (auto it = items_.begin(); it != items_.end();) {
    if (it->second.value.flags & keep_mask) {
      ++it;
    } else {
      erase(it++, false, false);
    }
  }
}

}  // namespace imca::memcache
