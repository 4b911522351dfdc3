// BlockDevice: the timing facade a file server mounts its backing store
// through.
//
// It combines a RAID array (time for media access) with a page cache
// (which accesses are free). Data reads promote pages; data writes are
// write-back: they populate the cache immediately and book an asynchronous
// flush on the array (the flush occupies disk time in the background and
// delays later cache-miss reads, like pdflush on the real server).
//
// Metadata (inode) accesses use a synthetic per-file page so that stat-heavy
// workloads on huge file sets pressure the cache realistically.
#pragma once

#include <cstdint>

#include "store/disk.h"
#include "store/page_cache.h"

namespace imca::store {

class BlockDevice {
 public:
  BlockDevice(sim::EventLoop& loop, std::size_t raid_members,
              std::uint64_t cache_bytes, std::string name = "blkdev")
      : loop_(loop),
        raid_(loop, raid_members, 64 * kKiB, std::move(name)),
        cache_(cache_bytes) {}

  // Charge a data read of [offset, offset+len) of file `inode`. Resident
  // pages are free; missing bytes go to the array.
  sim::Task<void> read(std::uint64_t inode, std::uint64_t offset,
                       std::uint64_t len);

  // Charge a data write: populate the cache, book the flush asynchronously.
  sim::Task<void> write(std::uint64_t inode, std::uint64_t offset,
                        std::uint64_t len);

  // Charge a metadata (inode block) access for `inode`.
  sim::Task<void> meta(std::uint64_t inode);

  // Drop cached pages of a file (unlink) or everything (remount).
  void invalidate(std::uint64_t inode) { cache_.invalidate(inode); }
  void drop_caches() { cache_.clear(); }

  PageCache& cache() noexcept { return cache_; }
  RaidArray& raid() noexcept { return raid_; }

 private:
  // Inode table lives at a distinct "file" id so metadata pages compete with
  // data pages for cache space, as they do in a real buffer cache.
  static constexpr std::uint64_t kMetaFile = ~0ull;

  sim::EventLoop& loop_;
  RaidArray raid_;
  PageCache cache_;
};

}  // namespace imca::store
