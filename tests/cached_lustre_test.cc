// Tests for the future-work prototype: the MCD bank integrated with the
// Lustre-like file system, coherence riding on Lustre's own DLM.
#include <gtest/gtest.h>

#include <memory>

#include "lustre/cached_client.h"
#include "lustre/data_server.h"
#include "lustre/mds.h"
#include "memcache/server.h"
#include "net/sim_context.h"

namespace imca::lustre {
namespace {

using sim::Task;

struct Rig : net::SimContext {
  explicit Rig(std::size_t n_clients = 2, std::size_t n_mcds = 2) {
    const auto mds_node = fabric().add_node("mds").id();
    mds = std::make_unique<MetadataServer>(rpc(), mds_node);
    const auto ds_node = fabric().add_node("ost0").id();
    ds.push_back(std::make_unique<DataServer>(rpc(), ds_node));

    std::vector<net::NodeId> mcd_nodes;
    for (std::size_t i = 0; i < n_mcds; ++i) {
      const auto n = fabric().add_node("mcd" + std::to_string(i)).id();
      mcd_nodes.push_back(n);
      mcds.push_back(std::make_unique<memcache::McServer>(rpc(), n, 1 * kGiB));
      mcds.back()->start();
    }

    for (std::size_t c = 0; c < n_clients; ++c) {
      const auto n = fabric().add_node("client" + std::to_string(c)).id();
      inner.push_back(std::make_unique<LustreClient>(
          rpc(), n, *mds, std::vector<DataServer*>{ds[0].get()}));
      cached.push_back(std::make_unique<CachedLustreClient>(
          *inner.back(),
          std::make_unique<mcclient::McClient>(
              rpc(), n, mcd_nodes,
              std::make_unique<mcclient::Crc32Selector>())));
    }
  }

  std::unique_ptr<MetadataServer> mds;
  std::vector<std::unique_ptr<DataServer>> ds;
  std::vector<std::unique_ptr<memcache::McServer>> mcds;
  std::vector<std::unique_ptr<LustreClient>> inner;
  std::vector<std::unique_ptr<CachedLustreClient>> cached;
};

TEST(CachedLustre, RoundTripAndBankPopulation) {
  Rig rig;
  rig.run([](Rig& r) -> Task<void> {
    auto& fs = *r.cached[0];
    auto f = co_await fs.create("/c/file");
    std::vector<std::byte> pattern(8 * kKiB);
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      pattern[i] = static_cast<std::byte>((i * 3) & 0xFF);
    }
    const Buffer payload = Buffer::take(std::move(pattern));
    EXPECT_TRUE((co_await fs.write(*f, 0, payload)).has_value());
    auto back = co_await fs.read(*f, 0, 8 * kKiB);
    EXPECT_TRUE(back.has_value());
    if (back) { EXPECT_EQ(*back, payload); }
    auto mid = co_await fs.read(*f, 3000, 3000);
    EXPECT_TRUE(mid.has_value());
    if (mid) {
      EXPECT_TRUE(mid->content_equals(payload.slice(3000, mid->size())));
    }
  }(rig));
  // The write published the covering blocks.
  EXPECT_GE(rig.cached[0]->stats().blocks_published, 4u);
  EXPECT_GE(rig.cached[0]->stats().reads_from_bank, 1u);
  std::size_t items = 0;
  for (const auto& m : rig.mcds) items += m->cache().item_count();
  EXPECT_GE(items, 4u);
}

TEST(CachedLustre, SecondClientReadsFromBankNotDataServers) {
  Rig rig;
  rig.run([](Rig& r) -> Task<void> {
    auto& writer = *r.cached[0];
    auto wf = co_await writer.create("/c/shared");
    (void)co_await writer.write(*wf, 0, to_buffer("bank-served content!"));

    auto& reader = *r.cached[1];
    auto rf = co_await reader.open("/c/shared");
    auto data = co_await reader.read(*rf, 0, 20);
    EXPECT_TRUE(data.has_value());
    if (data) { EXPECT_EQ(to_string(*data), "bank-served content!"); }
  }(rig));
  EXPECT_EQ(rig.cached[1]->stats().reads_from_bank, 1u);
  EXPECT_EQ(rig.cached[1]->stats().reads_from_lustre, 0u);
}

TEST(CachedLustre, WriterRevocationPurgesStaleBankEntries) {
  Rig rig;
  rig.run([](Rig& r) -> Task<void> {
    auto& a = *r.cached[0];
    auto& b = *r.cached[1];

    auto fa = co_await a.create("/c/doc");
    (void)co_await a.write(*fa, 0, to_buffer("version-A"));
    auto ra = co_await a.read(*fa, 0, 9);  // A reads its own publish
    EXPECT_TRUE(ra.has_value());

    // B takes the PW lock and writes: A's lock is revoked, A's published
    // blocks are purged, then B publishes the fresh content.
    auto fb = co_await b.open("/c/doc");
    EXPECT_TRUE((co_await b.write(*fb, 0, to_buffer("version-B"))).has_value());
    EXPECT_GE(r.cached[0]->stats().revocation_purges, 1u);

    // A reads again: must see B's version (via bank or via Lustre, either
    // path — but never the stale "version-A").
    auto r2 = co_await a.read(*fa, 0, 9);
    EXPECT_TRUE(r2.has_value());
    if (r2) { EXPECT_EQ(to_string(*r2), "version-B"); }
  }(rig));
}

TEST(CachedLustre, PingPongWritersStayCoherent) {
  Rig rig;
  rig.run([](Rig& r) -> Task<void> {
    auto& a = *r.cached[0];
    auto& b = *r.cached[1];
    auto fa = co_await a.create("/c/pingpong");
    auto fb = co_await b.open("/c/pingpong");
    EXPECT_TRUE(fb.has_value());
    for (int round = 0; round < 6; ++round) {
      const std::string text = "round-" + std::to_string(round) + "-data";
      auto& writer_fs = (round % 2 == 0) ? a : b;
      auto& writer_fd = (round % 2 == 0) ? fa : fb;
      auto& reader_fs = (round % 2 == 0) ? b : a;
      auto& reader_fd = (round % 2 == 0) ? fb : fa;
      EXPECT_TRUE(
          (co_await writer_fs.write(*writer_fd, 0, to_buffer(text))).has_value());
      auto got = co_await reader_fs.read(*reader_fd, 0, text.size());
      EXPECT_TRUE(got.has_value());
      if (got) { EXPECT_EQ(to_string(*got), text) << "round " << round; }
    }
  }(rig));
}

TEST(CachedLustre, UnlinkPurgesBank) {
  Rig rig(1);
  rig.run([](Rig& r) -> Task<void> {
    auto& fs = *r.cached[0];
    auto f = co_await fs.create("/c/gone");
    (void)co_await fs.write(*f, 0, to_buffer("soon to vanish"));
    (void)co_await fs.close(*f);
    EXPECT_TRUE((co_await fs.unlink("/c/gone")).has_value());
    // Recreate shorter: no stale tail may surface.
    auto f2 = co_await fs.create("/c/gone");
    (void)co_await fs.write(*f2, 0, to_buffer("new"));
    auto back = co_await fs.read(*f2, 0, 100);
    EXPECT_TRUE(back.has_value());
    if (back) { EXPECT_EQ(to_string(*back), "new"); }
  }(rig));
}

TEST(CachedLustre, ShortTailBlockEndsFileInBank) {
  Rig rig(1);
  rig.run([](Rig& r) -> Task<void> {
    auto& fs = *r.cached[0];
    auto f = co_await fs.create("/c/tail");
    // Two full 2 KiB blocks and a 5-byte tail; the write publishes all three.
    std::vector<std::byte> pattern(4 * kKiB + 5);
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      pattern[i] = static_cast<std::byte>((i * 7 + 1) & 0xFF);
    }
    const Buffer payload = Buffer::take(std::move(pattern));
    EXPECT_TRUE((co_await fs.write(*f, 0, payload)).has_value());

    // Covering blocks 0..7: the short block 2 ends the file, so the absent
    // blocks after it are EOF, not misses.
    auto whole = co_await fs.read(*f, 0, 16 * kKiB);
    EXPECT_TRUE(whole.has_value());
    if (whole) { EXPECT_EQ(*whole, payload); }
    auto tail = co_await fs.read(*f, 4 * kKiB + 2, 1000);
    EXPECT_TRUE(tail.has_value());
    if (tail) { EXPECT_EQ(*tail, payload.slice(4 * kKiB + 2)); }
  }(rig));
  EXPECT_EQ(rig.cached[0]->stats().reads_from_bank, 2u);
  EXPECT_EQ(rig.cached[0]->stats().reads_from_lustre, 0u);
}

TEST(CachedLustre, BankFailureFallsBackToLustre) {
  Rig rig(1, /*n_mcds=*/2);
  rig.run([](Rig& r) -> Task<void> {
    auto& fs = *r.cached[0];
    auto f = co_await fs.create("/c/resilient");
    const Buffer payload =
        Buffer::take(std::vector<std::byte>(6 * kKiB, std::byte{42}));
    (void)co_await fs.write(*f, 0, payload);
    for (auto& m : r.mcds) m->stop();  // the whole bank dies
    auto back = co_await fs.read(*f, 0, 6 * kKiB);
    EXPECT_TRUE(back.has_value());
    if (back) { EXPECT_EQ(*back, payload); }
  }(rig));
  EXPECT_GE(rig.cached[0]->stats().reads_from_lustre, 1u);
}

}  // namespace
}  // namespace imca::lustre
