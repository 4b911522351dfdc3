// Unit tests for the storage substrate: disk model, RAID striping, page
// cache LRU behaviour, object store semantics, and the BlockDevice facade.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "common/bytebuf.h"
#include "store/block_device.h"
#include "store/disk.h"
#include "store/object_store.h"
#include "store/page_cache.h"

namespace imca::store {
namespace {

using sim::EventLoop;
using sim::Task;

// --- DiskModel ---

TEST(Disk, RandomAccessPaysSeek) {
  EventLoop loop;
  DiskModel d(loop, "d0");
  SimTime t_random = 0;
  loop.spawn([](EventLoop& l, DiskModel& disk, SimTime& out) -> Task<void> {
    co_await disk.access(/*key=*/1, /*offset=*/0, 4096);
    out = l.now();
  }(loop, d, t_random));
  loop.run();
  EXPECT_GE(t_random, kDiskAvgSeek + kDiskHalfRotation);
  EXPECT_EQ(d.seeks(), 1u);
}

TEST(Disk, SequentialFollowUpSkipsSeek) {
  EventLoop loop;
  DiskModel d(loop, "d0");
  SimTime first = 0, second = 0;
  loop.spawn([](EventLoop& l, DiskModel& disk, SimTime& t1,
                SimTime& t2) -> Task<void> {
    co_await disk.access(1, 0, 4096);
    t1 = l.now();
    co_await disk.access(1, 4096, 4096);  // continues where we left off
    t2 = l.now();
  }(loop, d, first, second));
  loop.run();
  EXPECT_EQ(d.sequential_hits(), 1u);
  // The second access is far cheaper than the first.
  EXPECT_LT(second - first, (first) / 10);
}

TEST(Disk, TracksInterleavedStreams) {
  // NCQ + per-file readahead keep a bounded number of interleaved sequential
  // streams efficient: resuming a tracked stream does not seek.
  EventLoop loop;
  DiskModel d(loop, "d0");
  loop.spawn([](DiskModel& disk) -> Task<void> {
    co_await disk.access(1, 0, 4096);
    co_await disk.access(2, 0, 4096);     // second stream starts (seek)
    co_await disk.access(1, 4096, 4096);  // stream 1 resumes sequentially
    co_await disk.access(2, 4096, 4096);  // stream 2 resumes sequentially
  }(d));
  loop.run();
  EXPECT_EQ(d.seeks(), 2u);  // one initial seek per stream
  EXPECT_EQ(d.sequential_hits(), 2u);
}

TEST(Disk, TooManyStreamsFallOutOfTracking) {
  EventLoop loop;
  DiskModel d(loop, "d0");
  loop.spawn([](DiskModel& disk) -> Task<void> {
    co_await disk.access(1, 0, 4096);
    // 40 other streams push stream 1 out of the tracking window.
    for (std::uint64_t k = 2; k <= 41; ++k) {
      co_await disk.access(k, 0, 4096);
    }
    co_await disk.access(1, 4096, 4096);  // would be sequential, but evicted
  }(d));
  loop.run();
  EXPECT_EQ(d.sequential_hits(), 0u);
  EXPECT_EQ(d.seeks(), 42u);
}

// --- RaidArray ---

TEST(Raid, StreamingScalesWithMembers) {
  auto run = [](std::size_t members) {
    EventLoop loop;
    RaidArray raid(loop, members);
    loop.spawn([](RaidArray& r) -> Task<void> {
      // 64 MiB sequential stream in 1 MiB chunks.
      for (std::uint64_t off = 0; off < 64 * kMiB; off += kMiB) {
        co_await r.access(1, off, kMiB);
      }
    }(raid));
    loop.run();
    return loop.now();
  };
  const SimTime one = run(1);
  const SimTime eight = run(8);
  // 8-way striping should be at least 4x faster on a streaming workload.
  EXPECT_LT(static_cast<double>(eight), static_cast<double>(one) / 4.0);
}

TEST(Raid, SmallRequestTouchesOneDisk) {
  EventLoop loop;
  RaidArray raid(loop, 8);
  loop.spawn([](RaidArray& r) -> Task<void> {
    co_await r.access(1, 0, 4096);  // inside the first 64KiB stripe unit
  }(raid));
  loop.run();
  int touched = 0;
  for (std::size_t i = 0; i < raid.members(); ++i) {
    touched += (raid.disk(i).seeks() + raid.disk(i).sequential_hits()) > 0;
  }
  EXPECT_EQ(touched, 1);
}

TEST(Raid, ZeroByteAccessChargesMetadataTouch) {
  EventLoop loop;
  RaidArray raid(loop, 4);
  SimTime t = 0;
  loop.spawn([](EventLoop& l, RaidArray& r, SimTime& out) -> Task<void> {
    co_await r.access(7, 0, 0);
    out = l.now();
  }(loop, raid, t));
  loop.run();
  EXPECT_GT(t, 0u);  // overhead + seek, not free
}

// --- PageCache ---

TEST(PageCache, MissThenHit) {
  PageCache pc(1 * kMiB);
  EXPECT_EQ(pc.access(1, 0, 4096), 4096u);  // cold miss
  EXPECT_EQ(pc.access(1, 0, 4096), 0u);     // now resident
  EXPECT_EQ(pc.hits(), 1u);
  EXPECT_EQ(pc.misses(), 1u);
}

TEST(PageCache, PartialRangeCountsOnlyMissingPages) {
  PageCache pc(1 * kMiB);
  pc.populate(1, 0, 4096);  // first page resident
  // Range spans pages 0 and 1; only page 1 misses.
  EXPECT_EQ(pc.access(1, 0, 8192), 4096u);
}

TEST(PageCache, LruEvictsOldest) {
  PageCache pc(2 * PageCache::kPageSize);  // two pages capacity
  pc.populate(1, 0, 4096);                 // page A
  pc.populate(1, 4096, 4096);              // page B
  EXPECT_EQ(pc.access(1, 0, 4096), 0u);    // touch A (B is now LRU)
  pc.populate(2, 0, 4096);                 // page C evicts B
  EXPECT_EQ(pc.evictions(), 1u);
  EXPECT_EQ(pc.access(1, 0, 4096), 0u);     // A still here
  EXPECT_GT(pc.access(1, 4096, 4096), 0u);  // B was evicted
}

TEST(PageCache, InvalidateDropsOnlyThatFile) {
  PageCache pc(1 * kMiB);
  pc.populate(1, 0, 8192);
  pc.populate(2, 0, 4096);
  pc.invalidate(1);
  EXPECT_GT(pc.access(1, 0, 4096), 0u);  // gone
  EXPECT_EQ(pc.access(2, 0, 4096), 0u);  // untouched
}

TEST(PageCache, ClearDropsEverything) {
  PageCache pc(1 * kMiB);
  pc.populate(1, 0, 4096);
  pc.clear();
  EXPECT_EQ(pc.resident_pages(), 0u);
  EXPECT_GT(pc.access(1, 0, 4096), 0u);
}

TEST(PageCache, CoveredDoesNotPromote) {
  PageCache pc(1 * kMiB);
  EXPECT_FALSE(pc.covered(1, 0, 4096));
  pc.populate(1, 0, 4096);
  EXPECT_TRUE(pc.covered(1, 0, 4096));
  EXPECT_EQ(pc.hits(), 0u);  // covered() is not an access
}

TEST(PageCache, ZeroCapacityCachesNothing) {
  PageCache pc(0);
  EXPECT_EQ(pc.access(1, 0, 4096), 4096u);
  EXPECT_EQ(pc.access(1, 0, 4096), 4096u);  // still a miss
}

// --- Attr wire format ---

TEST(Attr, EncodeDecodeRoundTrip) {
  Attr a;
  a.inode = 7;
  a.size = 123456;
  a.mode = 0755;
  a.nlink = 2;
  a.atime = 111;
  a.mtime = 222;
  a.ctime = 333;
  ByteBuf buf;
  a.encode(buf);
  EXPECT_EQ(buf.size(), Attr::kWireSize);
  auto b = Attr::decode(buf);
  ASSERT_TRUE(b);
  EXPECT_EQ(*b, a);
}

TEST(Attr, DecodeTruncatedFails) {
  ByteBuf buf;
  buf.put_u64(1);  // only the inode
  EXPECT_FALSE(Attr::decode(buf));
}

// --- ObjectStore ---

TEST(ObjectStore, CreateStatUnlink) {
  ObjectStore os;
  auto a = os.create("/f", 100);
  ASSERT_TRUE(a);
  EXPECT_EQ(a->size, 0u);
  EXPECT_EQ(a->ctime, 100u);
  EXPECT_TRUE(os.exists("/f"));
  EXPECT_EQ(os.create("/f", 200).error(), Errc::kExist);
  ASSERT_TRUE(os.stat("/f"));
  ASSERT_TRUE(os.unlink("/f"));
  EXPECT_FALSE(os.exists("/f"));
  EXPECT_EQ(os.unlink("/f").error(), Errc::kNoEnt);
  EXPECT_EQ(os.stat("/f").error(), Errc::kNoEnt);
}

TEST(ObjectStore, WriteExtendsAndStampsMtime) {
  ObjectStore os;
  ASSERT_TRUE(os.create("/f", 1));
  auto sz = os.write("/f", 10, to_buffer("hello"), 50);
  ASSERT_TRUE(sz);
  EXPECT_EQ(*sz, 15u);
  const auto st = os.stat("/f").value();
  EXPECT_EQ(st.size, 15u);
  EXPECT_EQ(st.mtime, 50u);
  // The hole [0,10) reads as zeros.
  auto head = os.read("/f", 0, 10).value();
  for (auto b : head) EXPECT_EQ(b, std::byte{0});
  EXPECT_EQ(to_string(os.read("/f", 10, 5).value()), "hello");
}

TEST(ObjectStore, ShortReadAtEof) {
  ObjectStore os;
  ASSERT_TRUE(os.create("/f", 1));
  ASSERT_TRUE(os.write("/f", 0, to_buffer("abc"), 2));
  EXPECT_EQ(to_string(os.read("/f", 1, 100).value()), "bc");
  EXPECT_TRUE(os.read("/f", 3, 10).value().empty());
  EXPECT_TRUE(os.read("/f", 99, 10).value().empty());
}

TEST(ObjectStore, OverwriteInPlace) {
  ObjectStore os;
  ASSERT_TRUE(os.create("/f", 1));
  ASSERT_TRUE(os.write("/f", 0, to_buffer("aaaa"), 2));
  ASSERT_TRUE(os.write("/f", 1, to_buffer("bb"), 3));
  EXPECT_EQ(to_string(os.read("/f", 0, 4).value()), "abba");
}

TEST(ObjectStore, OverwriteLeavesEarlierReadsIntact) {
  ObjectStore os;
  ASSERT_TRUE(os.create("/f", 1));
  ASSERT_TRUE(os.write("/f", 0, to_buffer("abcdef"), 2));
  const Buffer before = os.read("/f", 0, 6).value();
  const auto copied = buffer_stats().bytes_copied;
  ASSERT_TRUE(os.write("/f", 2, to_buffer("XY"), 3));  // splits the extent
  ASSERT_TRUE(os.truncate("/f", 1, 4));
  EXPECT_EQ(to_string(before), "abcdef");  // a snapshot, not a window
  EXPECT_EQ(to_string(os.read("/f", 0, 6).value()), "a");
  // Writes and reads share the caller's segments; only to_string gathers.
  EXPECT_EQ(buffer_stats().bytes_copied, copied + 2 + 6 + 1);
}

TEST(ObjectStore, OverflowingWriteRangeIsRejected) {
  ObjectStore os;
  ASSERT_TRUE(os.create("/f", 1));
  ASSERT_TRUE(os.write("/f", 0, to_buffer("abc"), 2));
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(os.write("/f", kMax, to_buffer("x"), 3).error(), Errc::kInval);
  EXPECT_EQ(os.write("/f", kMax - 1, to_buffer("xyz"), 3).error(),
            Errc::kInval);
  // The file is untouched.
  EXPECT_EQ(os.stat("/f").value().size, 3u);
  EXPECT_EQ(os.stat("/f").value().mtime, 2u);
  EXPECT_EQ(os.total_bytes(), 3u);
  EXPECT_EQ(to_string(os.read("/f", 0, 10).value()), "abc");
  // A range ending exactly at 2^64 - 1 is representable: the file is sparse.
  ASSERT_TRUE(os.create("/g", 4));
  EXPECT_EQ(os.write("/g", kMax - 1, to_buffer("z"), 5).value(), kMax);
  EXPECT_EQ(to_string(os.read("/g", kMax - 1, 10).value()), "z");
  EXPECT_EQ(os.read("/g", 0, 5000).value(), Buffer::zeros(5000));
}

TEST(ObjectStore, WriteToMissingFileFails) {
  ObjectStore os;
  EXPECT_EQ(os.write("/nope", 0, to_buffer("x"), 1).error(), Errc::kNoEnt);
  EXPECT_EQ(os.read("/nope", 0, 1).error(), Errc::kNoEnt);
}

TEST(ObjectStore, TruncateBothWays) {
  ObjectStore os;
  ASSERT_TRUE(os.create("/f", 1));
  ASSERT_TRUE(os.write("/f", 0, to_buffer("abcdef"), 2));
  ASSERT_TRUE(os.truncate("/f", 3, 5));
  EXPECT_EQ(os.stat("/f").value().size, 3u);
  EXPECT_EQ(to_string(os.read("/f", 0, 10).value()), "abc");
  ASSERT_TRUE(os.truncate("/f", 5, 6));
  EXPECT_EQ(os.read("/f", 0, 10).value().size(), 5u);
}

TEST(ObjectStore, InodesAreUniqueAndStable) {
  ObjectStore os;
  const auto a = os.create("/a", 1).value().inode;
  const auto b = os.create("/b", 1).value().inode;
  EXPECT_NE(a, b);
  EXPECT_EQ(os.stat("/a").value().inode, a);
  ASSERT_TRUE(os.unlink("/a"));
  const auto c = os.create("/a", 2).value().inode;
  EXPECT_NE(c, a);  // recreation gets a fresh inode
}

TEST(ObjectStore, AccountsTotalBytes) {
  ObjectStore os;
  ASSERT_TRUE(os.create("/a", 1));
  ASSERT_TRUE(os.write("/a", 0, Buffer::zeros(1000), 1));
  EXPECT_EQ(os.total_bytes(), 1000u);
  ASSERT_TRUE(os.unlink("/a"));
  EXPECT_EQ(os.total_bytes(), 0u);
}

TEST(ObjectStore, ListIsSorted) {
  ObjectStore os;
  ASSERT_TRUE(os.create("/b", 1));
  ASSERT_TRUE(os.create("/a", 1));
  const auto l = os.list();
  ASSERT_EQ(l.size(), 2u);
  EXPECT_EQ(l[0], "/a");
  EXPECT_EQ(l[1], "/b");
}

// --- BlockDevice ---

TEST(BlockDevice, CachedReadIsFree) {
  EventLoop loop;
  BlockDevice dev(loop, 8, 64 * kMiB);
  SimTime first = 0, second = 0;
  loop.spawn([](EventLoop& l, BlockDevice& d, SimTime& t1,
                SimTime& t2) -> Task<void> {
    co_await d.read(1, 0, 4096);
    t1 = l.now();
    co_await d.read(1, 0, 4096);
    t2 = l.now();
  }(loop, dev, first, second));
  loop.run();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(second, first);  // second read hit the page cache: zero time
}

TEST(BlockDevice, WriteIsBufferedButFlushOccupiesDisk) {
  EventLoop loop;
  BlockDevice dev(loop, 1, 64 * kMiB);
  SimTime write_done = 0, read_done = 0;
  loop.spawn([](EventLoop& l, BlockDevice& d, SimTime& w,
                SimTime& r) -> Task<void> {
    co_await d.write(1, 0, 1 * kMiB);
    w = l.now();
    // A read of *uncached* data must queue behind the background flush.
    co_await d.read(2, 0, 4096);
    r = l.now();
  }(loop, dev, write_done, read_done));
  loop.run();
  EXPECT_EQ(write_done, 0u);  // write-back: no foreground disk time
  // Flush of 1MiB at 100MB/s ~ 10ms; the read waited behind it.
  EXPECT_GT(read_done, transfer_time(1 * kMiB, kDiskTransferBps));
}

TEST(BlockDevice, MetaMissesHitDiskOncePerInode) {
  EventLoop loop;
  BlockDevice dev(loop, 8, 64 * kMiB);
  SimTime t1 = 0, t2 = 0;
  loop.spawn([](EventLoop& l, BlockDevice& d, SimTime& a,
                SimTime& b) -> Task<void> {
    co_await d.meta(42);
    a = l.now();
    co_await d.meta(42);
    b = l.now();
  }(loop, dev, t1, t2));
  loop.run();
  EXPECT_GT(t1, 0u);
  EXPECT_EQ(t2, t1);  // inode now cached
}

TEST(BlockDevice, DropCachesForcesDiskAgain) {
  EventLoop loop;
  BlockDevice dev(loop, 8, 64 * kMiB);
  SimDuration first = 0, again = 0;
  loop.spawn([](EventLoop& l, BlockDevice& d, SimDuration& a,
                SimDuration& b) -> Task<void> {
    co_await d.read(1, 0, 4096);
    a = l.now();
    d.drop_caches();
    const SimTime mark = l.now();
    co_await d.read(1, 0, 4096);
    b = l.now() - mark;
  }(loop, dev, first, again));
  loop.run();
  EXPECT_GT(again, 0u);
}

}  // namespace
}  // namespace imca::store
