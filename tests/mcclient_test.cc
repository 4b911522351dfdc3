// Unit tests for the libmemcache-style client: selector strategies, routing,
// multi-get batching, dead-daemon failover and protocol limits.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "mcclient/client.h"
#include "mcclient/selector.h"
#include "memcache/server.h"
#include "net/fabric.h"
#include "net/rpc.h"
#include "net/sim_context.h"

namespace imca::mcclient {
namespace {

using memcache::McServer;

// --- selectors ---

TEST(Selector, Crc32MatchesLibmemcacheFormula) {
  Crc32Selector sel;
  for (const char* key : {"/a:0", "/a:2048", "/b:stat"}) {
    EXPECT_EQ(sel.pick(key, std::nullopt, 4), libmemcache_hash(key) % 4);
  }
}

TEST(Selector, ModuloUsesNumericHint) {
  ModuloSelector sel;
  EXPECT_EQ(sel.pick("ignored", 0, 4), 0u);
  EXPECT_EQ(sel.pick("ignored", 5, 4), 1u);
  EXPECT_EQ(sel.pick("ignored", 7, 4), 3u);
}

TEST(Selector, ModuloRoundRobinsConsecutiveBlocks) {
  // Fig 9's property: consecutive blocks land on consecutive daemons.
  ModuloSelector sel;
  std::vector<std::size_t> hits;
  for (std::uint64_t block = 0; block < 8; ++block) {
    hits.push_back(sel.pick("/file:" + std::to_string(block * 2048), block, 4));
  }
  EXPECT_EQ(hits, (std::vector<std::size_t>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST(Selector, ConsistentStaysInRange) {
  ConsistentSelector sel(6);
  for (int i = 0; i < 200; ++i) {
    const auto s = sel.pick("key" + std::to_string(i), std::nullopt, 5);
    EXPECT_LT(s, 5u);
  }
}

TEST(Selector, ConsistentRemapsFewKeysOnShrink) {
  // The future-work property: going from 6 daemons to 5 should move only
  // roughly 1/6 of keys, whereas modulo moves ~5/6 of them.
  ConsistentSelector sel(6);
  int moved_consistent = 0;
  int moved_modulo = 0;
  const int kKeys = 2000;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "/data/file" + std::to_string(i) + ":0";
    moved_consistent += sel.pick(key, std::nullopt, 6) != sel.pick(key, std::nullopt, 5);
    moved_modulo +=
        libmemcache_hash(key) % 6 != libmemcache_hash(key) % 5;
  }
  EXPECT_LT(moved_consistent, kKeys / 3);      // ~1/6 expected
  EXPECT_GT(moved_modulo, kKeys / 2);          // ~5/6 expected
  EXPECT_LT(moved_consistent * 2, moved_modulo);
}

TEST(Selector, ConsistentIsBalanced) {
  ConsistentSelector sel(4);
  std::map<std::size_t, int> load;
  const int kKeys = 4000;
  for (int i = 0; i < kKeys; ++i) {
    ++load[sel.pick("key" + std::to_string(i), std::nullopt, 4)];
  }
  for (const auto& [server, n] : load) {
    EXPECT_GT(n, kKeys / 8) << "server " << server << " underloaded";
    EXPECT_LT(n, kKeys / 2) << "server " << server << " overloaded";
  }
}

// --- client over the fabric ---

class McClientTest : public ::testing::Test, public net::SimContext {
 protected:
  static constexpr std::size_t kServers = 3;

  McClientTest() {
    for (std::size_t i = 0; i < kServers; ++i) {
      fabric().add_node("mcd" + std::to_string(i));
      servers_.push_back(std::make_unique<McServer>(
          rpc(), static_cast<net::NodeId>(i), 64 * kMiB));
      servers_.back()->start();
      server_ids_.push_back(static_cast<net::NodeId>(i));
    }
    client_node_ = fabric().add_node("client").id();
    client_ = std::make_unique<McClient>(rpc(), client_node_, server_ids_,
                                         std::make_unique<Crc32Selector>());
  }

  std::vector<std::unique_ptr<McServer>> servers_;
  std::vector<net::NodeId> server_ids_;
  net::NodeId client_node_ = 0;
  std::unique_ptr<McClient> client_;
};

TEST_F(McClientTest, SetGetDeleteLifecycle) {
  run([](McClient& c) -> sim::Task<void> {
    EXPECT_TRUE((co_await c.set("alpha", to_buffer("1"))).has_value());
    auto v = co_await c.get("alpha");
    EXPECT_TRUE(v.has_value());
    if (v) { EXPECT_EQ(to_string(v->data), "1"); }
    EXPECT_TRUE((co_await c.del("alpha")).has_value());
    EXPECT_EQ((co_await c.get("alpha")).error(), Errc::kNoEnt);
  }(*client_));
  EXPECT_EQ(client_->stats().hits, 1u);
  EXPECT_EQ(client_->stats().misses, 1u);
}

TEST_F(McClientTest, KeysSpreadAcrossDaemons) {
  run([](McClient& c) -> sim::Task<void> {
    for (int i = 0; i < 60; ++i) {
      (void)co_await c.set("/f" + std::to_string(i) + ":0", to_buffer("v"));
    }
  }(*client_));
  int daemons_with_items = 0;
  for (const auto& s : servers_) {
    daemons_with_items += s->cache().item_count() > 0;
  }
  EXPECT_EQ(daemons_with_items, 3);
}

TEST_F(McClientTest, MultiGetBatchesPerDaemon) {
  run([](McClient& c, net::RpcSystem& rpc) -> sim::Task<void> {
    std::vector<std::string> keys;
    for (int i = 0; i < 12; ++i) {
      keys.push_back("k" + std::to_string(i));
      (void)co_await c.set(keys.back(), to_buffer(std::to_string(i)));
    }
    const auto calls_before = rpc.calls_made();
    auto got = co_await c.multi_get(keys);
    EXPECT_EQ(got.size(), 12u);
    // All 12 keys arrive in at most one call per daemon.
    EXPECT_LE(rpc.calls_made() - calls_before, 3u);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(got[i].has_value());
      if (got[i]) { EXPECT_EQ(to_string(got[i]->data), std::to_string(i)); }
    }
  }(*client_, rpc()));
}

TEST_F(McClientTest, MultiGetReportsPartialMisses) {
  run([](McClient& c) -> sim::Task<void> {
    (void)co_await c.set("present", to_buffer("v"));
    std::vector<std::string> keys;
    keys.emplace_back("present");
    keys.emplace_back("absent1");
    keys.emplace_back("absent2");
    auto got = co_await c.multi_get(std::move(keys));
    EXPECT_EQ(got.size(), 3u);
    EXPECT_TRUE(got[0].has_value());
    EXPECT_FALSE(got[1].has_value());
    EXPECT_FALSE(got[2].has_value());
  }(*client_));
  EXPECT_EQ(client_->stats().misses, 2u);
}

TEST_F(McClientTest, DeadDaemonBecomesMissNotError) {
  run([](McClient& c,
         std::vector<std::unique_ptr<McServer>>& servers) -> sim::Task<void> {
    // Find a key routed to daemon 1, store it, then kill daemon 1.
    std::string key;
    for (int i = 0;; ++i) {
      key = "probe" + std::to_string(i);
      if (c.selector().pick(key, std::nullopt, kServers) == 1) break;
    }
    EXPECT_TRUE((co_await c.set(key, to_buffer("v"))).has_value());
    servers[1]->stop();
    auto v = co_await c.get(key);
    EXPECT_EQ(v.error(), Errc::kNoEnt);  // read as a miss, not a failure
    EXPECT_TRUE(c.server_dead(1));
    // Later operations on that daemon are swallowed locally.
    EXPECT_EQ((co_await c.get(key)).error(), Errc::kNoEnt);
    // Other daemons still work.
    std::string other;
    for (int i = 0;; ++i) {
      other = "other" + std::to_string(i);
      if (c.selector().pick(other, std::nullopt, kServers) != 1) break;
    }
    EXPECT_TRUE((co_await c.set(other, to_buffer("w"))).has_value());
    EXPECT_TRUE((co_await c.get(other)).has_value());
  }(*client_, servers_));
  EXPECT_GT(client_->stats().dead_server_ops, 0u);
}

TEST_F(McClientTest, MultiGetOrderedExposesMisses) {
  run([](McClient& c, net::RpcSystem& rpc) -> sim::Task<void> {
    (void)co_await c.set("ka", to_buffer("A"));
    (void)co_await c.set("kc", to_buffer("C"));
    const auto calls_before = rpc.calls_made();
    std::vector<std::string> keys{"ka", "missing1", "kc", "missing2"};
    auto got = co_await c.multi_get(std::move(keys));
    // Still one batched call per daemon.
    EXPECT_LE(rpc.calls_made() - calls_before, 3u);
    EXPECT_EQ(got.size(), 4u);
    EXPECT_TRUE(got[0].has_value());
    if (got[0]) { EXPECT_EQ(to_string(got[0]->data), "A"); }
    EXPECT_FALSE(got[1].has_value());
    EXPECT_TRUE(got[2].has_value());
    if (got[2]) { EXPECT_EQ(to_string(got[2]->data), "C"); }
    EXPECT_FALSE(got[3].has_value());
  }(*client_, rpc()));
  EXPECT_EQ(client_->stats().misses, 2u);
}

TEST_F(McClientTest, ValueTooBigSurfaces) {
  run([](McClient& c) -> sim::Task<void> {
    auto r = co_await c.set("big", Buffer::zeros(2 * kMiB));
    EXPECT_EQ(r.error(), Errc::kTooBig);
  }(*client_));
}

TEST_F(McClientTest, KeyTooLongSurfaces) {
  // The daemon refuses a key over 250 bytes with CLIENT_ERROR; the client
  // reports that as kKeyTooLong, not as a protocol error.
  run([](McClient& c) -> sim::Task<void> {
    auto r = co_await c.set(std::string(memcache::kMaxKeyLen + 1, 'k'),
                            to_buffer("v"));
    EXPECT_EQ(r.error(), Errc::kKeyTooLong);
    auto ok = co_await c.set(std::string(memcache::kMaxKeyLen, 'k'),
                             to_buffer("v"));
    EXPECT_TRUE(ok.has_value());
  }(*client_));
}

TEST_F(McClientTest, ModuloSelectorSpreadsBlocksOfOneFile) {
  McClient modulo_client(rpc(), client_node_, server_ids_,
                         std::make_unique<ModuloSelector>());
  run([](McClient& c) -> sim::Task<void> {
    for (std::uint64_t block = 0; block < 9; ++block) {
      (void)co_await c.set("/data:" + std::to_string(block * 2048),
                           to_buffer("b"), block);
    }
    co_return;
  }(modulo_client));
  // 9 blocks round-robin over 3 daemons: exactly 3 each.
  for (const auto& s : servers_) {
    EXPECT_EQ(s->cache().item_count(), 3u);
  }
}

}  // namespace
}  // namespace imca::mcclient
