// Unit tests for the GlusterFS-like substrate: wire protocol codec, the
// translator stack, posix semantics end to end over the fabric and
// namespace distribution.
#include <gtest/gtest.h>

#include <memory>

#include "gluster/client.h"
#include "gluster/distribute.h"
#include "gluster/protocol.h"
#include "gluster/server.h"
#include "net/sim_context.h"

namespace imca::gluster {
namespace {

using fsapi::OpenFile;
using sim::EventLoop;
using sim::Task;

// --- protocol codec ---

TEST(FopCodec, RequestRoundTrip) {
  FopRequest req;
  req.type = FopType::kWrite;
  req.path = "/dir/file";
  req.offset = 12345;
  req.length = 678;
  req.mode = 0600;
  req.data = to_buffer("payload");
  ByteBuf wire = req.encode();
  auto back = FopRequest::decode(wire);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->type, FopType::kWrite);
  EXPECT_EQ(back->path, "/dir/file");
  EXPECT_EQ(back->offset, 12345u);
  EXPECT_EQ(back->length, 678u);
  EXPECT_EQ(back->mode, 0600u);
  EXPECT_EQ(to_string(back->data), "payload");
}

TEST(FopCodec, ReplyRoundTrip) {
  FopReply rep;
  rep.errc = Errc::kNoEnt;
  rep.attr.inode = 9;
  rep.attr.size = 100;
  rep.data = to_buffer("bytes");
  rep.count = 5;
  ByteBuf wire = rep.encode();
  auto back = FopReply::decode(wire);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->errc, Errc::kNoEnt);
  EXPECT_EQ(back->attr.inode, 9u);
  EXPECT_EQ(to_string(back->data), "bytes");
  EXPECT_EQ(back->count, 5u);
}

TEST(FopCodec, GarbageRejected) {
  ByteBuf junk;
  junk.put_u8(99);  // invalid fop type
  EXPECT_FALSE(FopRequest::decode(junk));
  ByteBuf empty;
  EXPECT_FALSE(FopRequest::decode(empty));
}

// --- end-to-end mount over the fabric ---

class GlusterTest : public ::testing::Test, public net::SimContext {
 protected:
  GlusterTest() {
    fabric().add_node("server");
    fabric().add_node("client");
    server_ = std::make_unique<GlusterServer>(rpc(), 0);
    server_->start();
    client_ = std::make_unique<GlusterClient>(rpc(), 1, GlusterTopology{{0}});
  }

  std::unique_ptr<GlusterServer> server_;
  std::unique_ptr<GlusterClient> client_;
};

TEST_F(GlusterTest, CreateWriteReadStatUnlink) {
  run([](GlusterClient& fs) -> Task<void> {
    auto f = co_await fs.create("/a");
    EXPECT_TRUE(f.has_value());
    auto w = co_await fs.write(*f, 0, to_buffer("hello world"));
    EXPECT_TRUE(w.has_value());
    if (w) { EXPECT_EQ(*w, 11u); }
    auto r = co_await fs.read(*f, 6, 5);
    EXPECT_TRUE(r.has_value());
    if (r) { EXPECT_EQ(to_string(*r), "world"); }
    auto st = co_await fs.stat("/a");
    EXPECT_TRUE(st.has_value());
    if (st) { EXPECT_EQ(st->size, 11u); }
    EXPECT_TRUE((co_await fs.close(*f)).has_value());
    EXPECT_TRUE((co_await fs.unlink("/a")).has_value());
    EXPECT_EQ((co_await fs.stat("/a")).error(), Errc::kNoEnt);
  }(*client_));
  // The data really lives in the server's object store.
  EXPECT_EQ(server_->object_store().file_count(), 0u);
}

TEST_F(GlusterTest, ErrorsCrossTheWire) {
  run([](GlusterClient& fs) -> Task<void> {
    EXPECT_EQ((co_await fs.open("/missing")).error(), Errc::kNoEnt);
    auto f = co_await fs.create("/dup");
    EXPECT_TRUE(f.has_value());
    EXPECT_EQ((co_await fs.create("/dup")).error(), Errc::kExist);
    EXPECT_EQ((co_await fs.read(OpenFile{9999}, 0, 1)).error(), Errc::kBadF);
  }(*client_));
}

TEST_F(GlusterTest, OpsTakeNetworkAndServerTime) {
  run([](GlusterClient& fs) -> Task<void> {
    auto f = co_await fs.create("/t");
    (void)co_await fs.write(*f, 0, Buffer::zeros(64 * kKiB));
    (void)co_await fs.read(*f, 0, 64 * kKiB);
  }(*client_));
  // Round trips, FUSE crossings and server fop work all advanced the clock.
  EXPECT_GT(loop().now(), 200 * kMicro);
  EXPECT_GT(fabric().node(0).cpu().total_busy(), 0u);
  EXPECT_GT(fabric().node(1).cpu().total_busy(), 0u);
  EXPECT_EQ(server_->fops_served(), 3u);
}

TEST_F(GlusterTest, ColdReadPaysDiskWarmReadDoesNot) {
  SimDuration cold = 0, warm = 0;
  run([](GlusterClient& fs, GlusterServer& srv, EventLoop& loop,
         SimDuration& out_cold, SimDuration& out_warm) -> Task<void> {
    auto f = co_await fs.create("/d");
    (void)co_await fs.write(*f, 0, Buffer::zeros(256 * kKiB));
    srv.device().drop_caches();  // force media access
    SimTime t0 = loop.now();
    (void)co_await fs.read(*f, 0, 4096);
    out_cold = loop.now() - t0;
    t0 = loop.now();
    (void)co_await fs.read(*f, 0, 4096);  // server page cache now out_warm
    out_warm = loop.now() - t0;
  }(*client_, *server_, loop(), cold, warm));
  EXPECT_GT(cold, warm * 5);  // the seek dominates
}

TEST_F(GlusterTest, StatOfManyColdFilesHitsDisk) {
  SimDuration cold_time = 0;
  run([](GlusterClient& fs, GlusterServer& srv, EventLoop& loop,
         SimDuration& out_cold_time) -> Task<void> {
    for (int i = 0; i < 50; ++i) {
      auto f = co_await fs.create("/f" + std::to_string(i));
      (void)co_await fs.close(*f);
    }
    srv.device().drop_caches();
    const SimTime t0 = loop.now();
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE((co_await fs.stat("/f" + std::to_string(i))).has_value());
    }
    out_cold_time = loop.now() - t0;
    // Second pass: inode pages are cached, stats are disk-free.
    const SimTime t1 = loop.now();
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE((co_await fs.stat("/f" + std::to_string(i))).has_value());
    }
    EXPECT_LT(loop.now() - t1, out_cold_time);
  }(*client_, *server_, loop(), cold_time));
  // Cold stats paid at least the initial seek plus per-request media time.
  EXPECT_GT(cold_time, 10 * kMilli);
  std::uint64_t seeks = 0;
  for (std::size_t i = 0; i < server_->device().raid().members(); ++i) {
    seeks += server_->device().raid().disk(i).seeks();
  }
  EXPECT_GT(seeks, 0u);
}

// --- distribute (multi-brick namespace) ---

TEST(Distribute, SpreadsNamespaceAcrossBricks) {
  net::SimContext ctx;
  constexpr std::size_t kBricks = 3;
  std::vector<std::unique_ptr<GlusterServer>> bricks;
  for (std::size_t b = 0; b < kBricks; ++b) {
    ctx.fabric().add_node("brick" + std::to_string(b));
    bricks.push_back(
        std::make_unique<GlusterServer>(ctx.rpc(),
                                        static_cast<net::NodeId>(b)));
    bricks.back()->start();
  }
  const auto client_node = ctx.fabric().add_node("client").id();

  GlusterClient client(ctx.rpc(), client_node, GlusterTopology{{0}});
  std::vector<std::unique_ptr<ProtocolClient>> conns;
  for (std::size_t b = 0; b < kBricks; ++b) {
    conns.push_back(std::make_unique<ProtocolClient>(
        ctx.rpc(), client_node, static_cast<net::NodeId>(b)));
  }
  client.push_translator(std::make_unique<DistributeXlator>(std::move(conns)));

  ctx.run([](GlusterClient& fs) -> Task<void> {
    for (int i = 0; i < 30; ++i) {
      const std::string path = "/spread/file" + std::to_string(i);
      auto f = co_await fs.create(path);
      EXPECT_TRUE(f.has_value());
      (void)co_await fs.write(*f, 0, to_buffer("x" + std::to_string(i)));
      (void)co_await fs.close(*f);
    }
    // Every file is reachable afterwards.
    for (int i = 0; i < 30; ++i) {
      auto st = co_await fs.stat("/spread/file" + std::to_string(i));
      EXPECT_TRUE(st.has_value());
    }
  }(client));

  // Each brick holds a non-empty, disjoint share of the namespace.
  std::size_t total = 0;
  for (const auto& b : bricks) {
    EXPECT_GT(b->object_store().file_count(), 0u);
    total += b->object_store().file_count();
  }
  EXPECT_EQ(total, 30u);
}

TEST(Distribute, CrossBrickRenameMigratesData) {
  net::SimContext ctx;
  std::vector<std::unique_ptr<GlusterServer>> bricks;
  for (int b = 0; b < 3; ++b) {
    ctx.fabric().add_node("brick" + std::to_string(b));
    bricks.push_back(
        std::make_unique<GlusterServer>(ctx.rpc(),
                                        static_cast<net::NodeId>(b)));
    bricks.back()->start();
  }
  const auto cnode = ctx.fabric().add_node("client").id();
  GlusterClient client(ctx.rpc(), cnode, GlusterTopology{{0}});
  std::vector<std::unique_ptr<ProtocolClient>> conns;
  for (int b = 0; b < 3; ++b) {
    conns.push_back(std::make_unique<ProtocolClient>(
        ctx.rpc(), cnode, static_cast<net::NodeId>(b)));
  }
  auto dht = std::make_unique<DistributeXlator>(std::move(conns));
  auto* dht_ptr = dht.get();
  client.push_translator(std::move(dht));

  // Captureless lambda: a capturing lambda temporary dies at the end of the
  // full expression while the lazy coroutine frame still references it.
  ctx.run([](DistributeXlator* dx, GlusterClient& fs) -> Task<void> {
    // Find a pair of names hashing to different bricks.
    std::string from = "/mv/src0", to;
    for (int i = 0;; ++i) {
      to = "/mv/dst" + std::to_string(i);
      if (dx->subvol_of(to) != dx->subvol_of(from)) break;
    }
    auto f = co_await fs.create(from);
    (void)co_await fs.write(*f, 0, to_buffer("migrates across bricks"));
    EXPECT_TRUE((co_await fs.rename(from, to)).has_value());
    EXPECT_EQ((co_await fs.stat(from)).error(), Errc::kNoEnt);
    auto g = co_await fs.open(to);
    auto back = co_await fs.read(*g, 0, 100);
    EXPECT_TRUE(back.has_value());
    if (back) { EXPECT_EQ(to_string(*back), "migrates across bricks"); }
  }(dht_ptr, client));
}

}  // namespace
}  // namespace imca::gluster
