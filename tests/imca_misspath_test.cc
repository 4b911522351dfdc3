// Tests for the rebuilt CMCache miss path: partial-hit assembly, client-side
// read-repair, and single-flight coalescing (DESIGN.md "Miss-path handling").
//
// The rig mirrors imca_test.cc's Deployment but lets each test drop SMCache
// from the server stack (with_smcache=false), isolating the client-side
// machinery: nothing repopulates the MCD bank except the clients themselves.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gluster/client.h"
#include "gluster/server.h"
#include "imca/cmcache.h"
#include "imca/config.h"
#include "imca/keys.h"
#include "imca/smcache.h"
#include "memcache/server.h"
#include "net/transport.h"
#include "sim/sync.h"

namespace imca::core {
namespace {

using sim::EventLoop;
using sim::Task;

constexpr std::uint64_t kBs = 2 * kKiB;  // the default IMCa block size

struct Rig {
  explicit Rig(std::size_t n_mcds, ImcaConfig cfg = {},
               bool with_smcache = true)
      : fabric(loop, net::ipoib_rc()), rpc(fabric) {
    server_node = fabric.add_node("gluster-server").id();
    for (std::size_t i = 0; i < n_mcds; ++i) {
      mcd_nodes.push_back(fabric.add_node("mcd" + std::to_string(i)).id());
    }
    client_node = fabric.add_node("client0").id();

    for (auto n : mcd_nodes) {
      mcds.push_back(std::make_unique<memcache::McServer>(rpc, n, 6 * kGiB));
      mcds.back()->start();
    }

    server = std::make_unique<gluster::GlusterServer>(rpc, server_node);
    if (with_smcache) {
      server->push_translator(std::make_unique<SmCacheXlator>(
          loop,
          std::make_unique<mcclient::McClient>(rpc, server_node, mcd_nodes,
                                               make_selector(cfg)),
          cfg));
    }
    server->start();

    client = std::make_unique<gluster::GlusterClient>(
        rpc, client_node, gluster::GlusterTopology{{server_node}});
    auto cm = std::make_unique<CmCacheXlator>(
        std::make_unique<mcclient::McClient>(rpc, client_node, mcd_nodes,
                                             make_selector(cfg)),
        cfg);
    cmcache = cm.get();
    client->push_translator(std::move(cm));
  }

  // Drop one block of `path` from every daemon, directly (models eviction;
  // no simulated time passes).
  void evict(const std::string& path, std::uint64_t block) {
    const std::string key = data_key(path, block * kBs);
    for (auto& m : mcds) (void)m->cache().del(key);
  }

  // Patterned payload so splices are position-checkable.
  static Buffer pattern(std::size_t n) {
    std::vector<std::byte> p(n);
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = static_cast<std::byte>((i * 13 + 7) & 0xFF);
    }
    return Buffer::take(std::move(p));
  }

  void run(Task<void> t) {
    loop.spawn(std::move(t));
    loop.run();
  }

  EventLoop loop;
  net::Fabric fabric;
  net::RpcSystem rpc;
  net::NodeId server_node = 0;
  net::NodeId client_node = 0;
  std::vector<net::NodeId> mcd_nodes;
  std::vector<std::unique_ptr<memcache::McServer>> mcds;
  std::unique_ptr<gluster::GlusterServer> server;
  std::unique_ptr<gluster::GlusterClient> client;
  CmCacheXlator* cmcache = nullptr;
};

// --- partial-hit assembly ---

TEST(MissPath, PartialHitSplicesUnalignedRead) {
  Rig d(2);
  d.run([](Rig& dd) -> Task<void> {
    auto f = co_await dd.client->create("/p");
    const auto payload = Rig::pattern(8 * kBs);
    (void)co_await dd.client->write(*f, 0, payload);
    // Punch holes in the middle: blocks 2 and 5 (non-contiguous -> two
    // separate coalesced range fetches).
    dd.evict("/p", 2);
    dd.evict("/p", 5);

    // Unaligned read straddling blocks 1..6: cached 1,3,4,6; missing 2,5.
    const std::uint64_t off = kBs + 700;
    const std::uint64_t len = 5 * kBs + 11;
    auto r = co_await dd.client->read(*f, off, len);
    EXPECT_TRUE(r.has_value());
    if (r) {
      EXPECT_EQ(*r, payload.slice(off, len));
    }
  }(d));
  EXPECT_EQ(d.cmcache->stats().reads_partial, 1u);
  EXPECT_EQ(d.cmcache->stats().reads_forwarded, 0u);
  EXPECT_EQ(d.cmcache->stats().range_fetches, 2u);  // one per missing run
}

TEST(MissPath, PartialHitAcrossEofShortBlock) {
  Rig d(2);
  d.run([](Rig& dd) -> Task<void> {
    auto f = co_await dd.client->create("/eof");
    // 2 full blocks + 5 trailing bytes: block 2 is short (EOF marker).
    const auto payload = Rig::pattern(2 * kBs + 5);
    (void)co_await dd.client->write(*f, 0, payload);
    dd.evict("/eof", 1);  // hole in the middle, short block stays cached

    // Ask for far more than the file holds: covering blocks 0..7. The
    // cached short block 2 must prune blocks 3..7 to EOF-empty without any
    // server traffic; only block 1 needs a range fetch.
    auto r = co_await dd.client->read(*f, 0, 8 * kBs);
    EXPECT_TRUE(r.has_value());
    if (r) { EXPECT_EQ(*r, payload); }
    // An unaligned tail read ending inside the short block still works.
    auto r2 = co_await dd.client->read(*f, kBs + 100, kBs + 5000);
    EXPECT_TRUE(r2.has_value());
    if (r2) {
      EXPECT_EQ(*r2, payload.slice(kBs + 100));
    }
  }(d));
  EXPECT_GE(d.cmcache->stats().reads_partial, 1u);
  // Exactly one range fetch (block 1, first read); blocks 3..7 were pruned,
  // and the second read found block 1 repopulated.
  EXPECT_EQ(d.cmcache->stats().range_fetches, 1u);
}

// --- client-side read-repair ---

TEST(MissPath, ReadRepairWarmsBankWithoutSmcache) {
  Rig d(2, {}, /*with_smcache=*/false);
  d.run([](Rig& dd) -> Task<void> {
    auto f = co_await dd.client->create("/rr");
    const auto payload = Rig::pattern(4 * kBs);
    (void)co_await dd.client->write(*f, 0, payload);
    // No SMCache: the bank is stone cold. First read misses everything.
    auto r1 = co_await dd.client->read(*f, 0, 4 * kBs);
    EXPECT_TRUE(r1.has_value());
    EXPECT_EQ(dd.cmcache->stats().range_fetches, 1u);

    // Let the fire-and-forget repair sets land.
    co_await dd.loop.sleep(1 * kMilli);
    EXPECT_EQ(dd.cmcache->stats().blocks_repaired, 4u);

    // Second read: full cache hit — the client, not the server, warmed it.
    const auto fops_before = dd.server->fops_served();
    auto r2 = co_await dd.client->read(*f, 0, 4 * kBs);
    EXPECT_TRUE(r2.has_value());
    if (r2) { EXPECT_EQ(*r2, payload); }
    EXPECT_EQ(dd.server->fops_served(), fops_before);
  }(d));
  EXPECT_EQ(d.cmcache->stats().reads_from_cache, 1u);
  EXPECT_EQ(d.cmcache->stats().range_fetches, 1u);
}

// --- degraded bank ---

TEST(MissPath, DeadDaemonMidReadDegradesToRangeFetch) {
  Rig d(2);
  d.run([](Rig& dd) -> Task<void> {
    auto f = co_await dd.client->create("/dead");
    const auto payload = Rig::pattern(6 * kBs);
    (void)co_await dd.client->write(*f, 0, payload);
    // One of the two daemons dies with its blocks. Reads must degrade to
    // fetching the lost ranges, never error.
    dd.mcds[1]->stop();
    auto r = co_await dd.client->read(*f, 0, 6 * kBs);
    EXPECT_TRUE(r.has_value());
    if (r) { EXPECT_EQ(*r, payload); }
  }(d));
  // The surviving daemon's blocks still count as hits (crc32 spreads 6
  // blocks over 2 daemons, so both classes are non-empty in practice).
  const auto& s = d.cmcache->stats();
  EXPECT_EQ(s.reads_partial + s.reads_forwarded, 1u);
  EXPECT_GE(s.range_fetches, 1u);
}

// --- single-flight coalescing ---

TEST(MissPath, SingleFlightSharesOneFetchAmongWaiters) {
  Rig d(2);
  d.run([](Rig& dd) -> Task<void> {
    auto f = co_await dd.client->create("/sf");
    const auto payload = Rig::pattern(2 * kBs);
    (void)co_await dd.client->write(*f, 0, payload);
    for (auto& m : dd.mcds) m->cache().flush_all();  // everyone misses

    // Four concurrent readers of the same cold blocks: one leader does the
    // MCD fetch + range fetch, three piggyback and splice the same bytes.
    std::vector<Task<void>> readers;
    for (int i = 0; i < 4; ++i) {
      readers.push_back([](Rig& rr, fsapi::OpenFile fd,
                           Buffer want) -> Task<void> {
        auto r = co_await rr.client->read(fd, 0, 2 * kBs);
        EXPECT_TRUE(r.has_value());
        if (r) { EXPECT_EQ(*r, want); }
      }(dd, *f, payload));
    }
    co_await sim::when_all(dd.loop, std::move(readers));
  }(d));
  const auto& s = d.cmcache->stats();
  EXPECT_EQ(s.range_fetches, 1u);           // one server read for all four
  EXPECT_EQ(s.coalesced_waiters, 3u * 2u);  // 3 late readers x 2 blocks
}

// --- the paper baseline knob ---

TEST(MissPath, PartialHitOffRestoresForwardOnAnyMiss) {
  ImcaConfig cfg;
  cfg.partial_hit_reads = false;
  Rig d(2, cfg);
  d.run([](Rig& dd) -> Task<void> {
    auto f = co_await dd.client->create("/base");
    (void)co_await dd.client->write(*f, 0, Rig::pattern(4 * kBs));
    dd.evict("/base", 2);
    auto r = co_await dd.client->read(*f, 0, 4 * kBs);
    EXPECT_TRUE(r.has_value());
  }(d));
  // The paper's path: one miss discards three hits, no splicing happens.
  EXPECT_EQ(d.cmcache->stats().reads_forwarded, 1u);
  EXPECT_EQ(d.cmcache->stats().reads_partial, 0u);
  EXPECT_EQ(d.cmcache->stats().range_fetches, 0u);
}

TEST(MissPath, PartialHitOffServesShortTailFromBank) {
  ImcaConfig cfg;
  cfg.partial_hit_reads = false;
  Rig d(2, cfg);
  d.run([](Rig& dd) -> Task<void> {
    auto f = co_await dd.client->create("/tail");
    // 2 full blocks + 5 trailing bytes; SMCache publishes all three.
    const auto payload = Rig::pattern(2 * kBs + 5);
    (void)co_await dd.client->write(*f, 0, payload);
    const auto fops_before = dd.server->fops_served();

    // Covering blocks 0..7: the short block 2 ends the file, so the absent
    // blocks 3..7 are EOF, not misses.
    auto r = co_await dd.client->read(*f, 0, 8 * kBs);
    EXPECT_TRUE(r.has_value());
    if (r) { EXPECT_EQ(*r, payload); }
    // Starting inside the short block and running past EOF.
    auto tail = co_await dd.client->read(*f, 2 * kBs + 2, kBs);
    EXPECT_TRUE(tail.has_value());
    if (tail) { EXPECT_EQ(*tail, payload.slice(2 * kBs + 2)); }
    // Starting exactly at EOF: empty, and still no server fop.
    auto empty = co_await dd.client->read(*f, 2 * kBs + 5, 100);
    EXPECT_TRUE(empty.has_value());
    if (empty) { EXPECT_TRUE(empty->empty()); }
    EXPECT_EQ(dd.server->fops_served(), fops_before);
  }(d));
  EXPECT_EQ(d.cmcache->stats().reads_from_cache, 3u);
  EXPECT_EQ(d.cmcache->stats().reads_forwarded, 0u);
}

}  // namespace
}  // namespace imca::core
