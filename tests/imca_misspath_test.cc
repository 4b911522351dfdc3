// Tests for the rebuilt CMCache miss path: partial-hit assembly, client-side
// read-repair, and single-flight coalescing (DESIGN.md "Miss-path handling").
//
// Each test runs on a GlusterTestbed and may drop SMCache from the server
// stack (smcache=false), isolating the client-side machinery: nothing
// repopulates the MCD bank except the clients themselves.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/testbed.h"
#include "imca/config.h"
#include "imca/keys.h"
#include "sim/sync.h"

namespace imca::core {
namespace {

using cluster::GlusterTestbed;
using sim::Task;

constexpr std::uint64_t kBs = 2 * kKiB;  // the default IMCa block size

// One client, one brick and `n_mcds` daemons; `smcache` false drops SMCache
// from the server stack.
cluster::GlusterTestbedConfig deployment(std::size_t n_mcds,
                                         ImcaConfig imca = {},
                                         bool smcache = true) {
  cluster::GlusterTestbedConfig cfg;
  cfg.n_mcds = n_mcds;
  cfg.imca = imca;
  cfg.smcache = smcache;
  return cfg;
}

// Drop one block of `path` from every daemon, directly (models eviction; no
// simulated time passes).
void evict(cluster::GlusterTestbed& tb, const std::string& path,
           std::uint64_t block) {
  const std::string key = data_key(path, block * kBs);
  for (std::size_t i = 0; i < tb.n_mcds(); ++i) {
    (void)tb.mcd(i).cache().del(key);
  }
}

// Patterned payload so splices are position-checkable.
Buffer pattern(std::size_t n) {
  std::vector<std::byte> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::byte>((i * 13 + 7) & 0xFF);
  }
  return Buffer::take(std::move(p));
}

// --- partial-hit assembly ---

TEST(MissPath, PartialHitSplicesUnalignedRead) {
  GlusterTestbed d(deployment(2));
  d.run([](GlusterTestbed& dd) -> Task<void> {
    auto f = co_await dd.client(0).create("/p");
    const auto payload = pattern(8 * kBs);
    (void)co_await dd.client(0).write(*f, 0, payload);
    // Punch holes in the middle: blocks 2 and 5 (non-contiguous -> two
    // separate coalesced range fetches).
    evict(dd, "/p", 2);
    evict(dd, "/p", 5);

    // Unaligned read straddling blocks 1..6: cached 1,3,4,6; missing 2,5.
    const std::uint64_t off = kBs + 700;
    const std::uint64_t len = 5 * kBs + 11;
    auto r = co_await dd.client(0).read(*f, off, len);
    EXPECT_TRUE(r.has_value());
    if (r) {
      EXPECT_EQ(*r, payload.slice(off, len));
    }
  }(d));
  EXPECT_EQ(d.cmcache(0).stats().reads_partial, 1u);
  EXPECT_EQ(d.cmcache(0).stats().reads_forwarded, 0u);
  EXPECT_EQ(d.cmcache(0).stats().range_fetches, 2u);  // one per missing run
}

TEST(MissPath, PartialHitAcrossEofShortBlock) {
  GlusterTestbed d(deployment(2));
  d.run([](GlusterTestbed& dd) -> Task<void> {
    auto f = co_await dd.client(0).create("/eof");
    // 2 full blocks + 5 trailing bytes: block 2 is short (EOF marker).
    const auto payload = pattern(2 * kBs + 5);
    (void)co_await dd.client(0).write(*f, 0, payload);
    evict(dd, "/eof", 1);  // hole in the middle, short block stays cached

    // Ask for far more than the file holds: covering blocks 0..7. The
    // cached short block 2 must prune blocks 3..7 to EOF-empty without any
    // server traffic; only block 1 needs a range fetch.
    auto r = co_await dd.client(0).read(*f, 0, 8 * kBs);
    EXPECT_TRUE(r.has_value());
    if (r) { EXPECT_EQ(*r, payload); }
    // An unaligned tail read ending inside the short block still works.
    auto r2 = co_await dd.client(0).read(*f, kBs + 100, kBs + 5000);
    EXPECT_TRUE(r2.has_value());
    if (r2) {
      EXPECT_EQ(*r2, payload.slice(kBs + 100));
    }
  }(d));
  EXPECT_GE(d.cmcache(0).stats().reads_partial, 1u);
  // Exactly one range fetch (block 1, first read); blocks 3..7 were pruned,
  // and the second read found block 1 repopulated.
  EXPECT_EQ(d.cmcache(0).stats().range_fetches, 1u);
}

// --- client-side read-repair ---

TEST(MissPath, ReadRepairWarmsBankWithoutSmcache) {
  GlusterTestbed d(deployment(2, {}, /*smcache=*/false));
  d.run([](GlusterTestbed& dd) -> Task<void> {
    auto f = co_await dd.client(0).create("/rr");
    const auto payload = pattern(4 * kBs);
    (void)co_await dd.client(0).write(*f, 0, payload);
    // No SMCache: the bank is stone cold. First read misses everything.
    auto r1 = co_await dd.client(0).read(*f, 0, 4 * kBs);
    EXPECT_TRUE(r1.has_value());
    EXPECT_EQ(dd.cmcache(0).stats().range_fetches, 1u);

    // Let the fire-and-forget repair sets land.
    co_await dd.loop().sleep(1 * kMilli);
    EXPECT_EQ(dd.cmcache(0).stats().blocks_repaired, 4u);

    // Second read: full cache hit — the client, not the server, warmed it.
    const auto fops_before = dd.server().fops_served();
    auto r2 = co_await dd.client(0).read(*f, 0, 4 * kBs);
    EXPECT_TRUE(r2.has_value());
    if (r2) { EXPECT_EQ(*r2, payload); }
    EXPECT_EQ(dd.server().fops_served(), fops_before);
  }(d));
  EXPECT_EQ(d.cmcache(0).stats().reads_from_cache, 1u);
  EXPECT_EQ(d.cmcache(0).stats().range_fetches, 1u);
}

// --- degraded bank ---

TEST(MissPath, DeadDaemonMidReadDegradesToRangeFetch) {
  GlusterTestbed d(deployment(2));
  d.run([](GlusterTestbed& dd) -> Task<void> {
    auto f = co_await dd.client(0).create("/dead");
    const auto payload = pattern(6 * kBs);
    (void)co_await dd.client(0).write(*f, 0, payload);
    // One of the two daemons dies with its blocks. Reads must degrade to
    // fetching the lost ranges, never error.
    dd.mcd(1).stop();
    auto r = co_await dd.client(0).read(*f, 0, 6 * kBs);
    EXPECT_TRUE(r.has_value());
    if (r) { EXPECT_EQ(*r, payload); }
  }(d));
  // The surviving daemon's blocks still count as hits (crc32 spreads 6
  // blocks over 2 daemons, so both classes are non-empty in practice).
  const auto& s = d.cmcache(0).stats();
  EXPECT_EQ(s.reads_partial + s.reads_forwarded, 1u);
  EXPECT_GE(s.range_fetches, 1u);
}

// --- single-flight coalescing ---

TEST(MissPath, SingleFlightSharesOneFetchAmongWaiters) {
  GlusterTestbed d(deployment(2));
  d.run([](GlusterTestbed& dd) -> Task<void> {
    auto f = co_await dd.client(0).create("/sf");
    const auto payload = pattern(2 * kBs);
    (void)co_await dd.client(0).write(*f, 0, payload);
    for (std::size_t i = 0; i < dd.n_mcds(); ++i) {
      dd.mcd(i).cache().flush_all();  // everyone misses
    }

    // Four concurrent readers of the same cold blocks: one leader does the
    // MCD fetch + range fetch, three piggyback and splice the same bytes.
    std::vector<Task<void>> readers;
    for (int i = 0; i < 4; ++i) {
      readers.push_back([](GlusterTestbed& rr, fsapi::OpenFile fd,
                           Buffer want) -> Task<void> {
        auto r = co_await rr.client(0).read(fd, 0, 2 * kBs);
        EXPECT_TRUE(r.has_value());
        if (r) { EXPECT_EQ(*r, want); }
      }(dd, *f, payload));
    }
    co_await sim::when_all(dd.loop(), std::move(readers));
  }(d));
  const auto& s = d.cmcache(0).stats();
  EXPECT_EQ(s.range_fetches, 1u);           // one server read for all four
  EXPECT_EQ(s.coalesced_waiters, 3u * 2u);  // 3 late readers x 2 blocks
}

// --- the paper baseline knob ---

TEST(MissPath, PartialHitOffRestoresForwardOnAnyMiss) {
  ImcaConfig cfg;
  cfg.partial_hit_reads = false;
  GlusterTestbed d(deployment(2, cfg));
  d.run([](GlusterTestbed& dd) -> Task<void> {
    auto f = co_await dd.client(0).create("/base");
    (void)co_await dd.client(0).write(*f, 0, pattern(4 * kBs));
    evict(dd, "/base", 2);
    auto r = co_await dd.client(0).read(*f, 0, 4 * kBs);
    EXPECT_TRUE(r.has_value());
  }(d));
  // The paper's path: one miss discards three hits, no splicing happens.
  EXPECT_EQ(d.cmcache(0).stats().reads_forwarded, 1u);
  EXPECT_EQ(d.cmcache(0).stats().reads_partial, 0u);
  EXPECT_EQ(d.cmcache(0).stats().range_fetches, 0u);
}

TEST(MissPath, PartialHitOffServesShortTailFromBank) {
  ImcaConfig cfg;
  cfg.partial_hit_reads = false;
  GlusterTestbed d(deployment(2, cfg));
  d.run([](GlusterTestbed& dd) -> Task<void> {
    auto f = co_await dd.client(0).create("/tail");
    // 2 full blocks + 5 trailing bytes; SMCache publishes all three.
    const auto payload = pattern(2 * kBs + 5);
    (void)co_await dd.client(0).write(*f, 0, payload);
    const auto fops_before = dd.server().fops_served();

    // Covering blocks 0..7: the short block 2 ends the file, so the absent
    // blocks 3..7 are EOF, not misses.
    auto r = co_await dd.client(0).read(*f, 0, 8 * kBs);
    EXPECT_TRUE(r.has_value());
    if (r) { EXPECT_EQ(*r, payload); }
    // Starting inside the short block and running past EOF.
    auto tail = co_await dd.client(0).read(*f, 2 * kBs + 2, kBs);
    EXPECT_TRUE(tail.has_value());
    if (tail) { EXPECT_EQ(*tail, payload.slice(2 * kBs + 2)); }
    // Starting exactly at EOF: empty, and still no server fop.
    auto empty = co_await dd.client(0).read(*f, 2 * kBs + 5, 100);
    EXPECT_TRUE(empty.has_value());
    if (empty) { EXPECT_TRUE(empty->empty()); }
    EXPECT_EQ(dd.server().fops_served(), fops_before);
  }(d));
  EXPECT_EQ(d.cmcache(0).stats().reads_from_cache, 3u);
  EXPECT_EQ(d.cmcache(0).stats().reads_forwarded, 0u);
}

}  // namespace
}  // namespace imca::core
