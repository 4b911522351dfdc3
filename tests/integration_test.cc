// Cross-module integration and robustness tests:
//  * the same byte stream written through all three file systems reads back
//    identically (the comparison methodology is only valid if they agree);
//  * protocol parsers survive random garbage (fuzz-ish determinstic sweep);
//  * IMCa composed with namespace distribution and stock translators;
//  * multi-client sharing through the bank (one writer, many readers);
//  * threaded SMCache staleness window closes by quiesce time.
#include <gtest/gtest.h>

#include "cluster/testbed.h"
#include "common/rng.h"
#include "gluster/distribute.h"
#include "gluster/protocol.h"
#include "memcache/protocol.h"

namespace imca {
namespace {

using cluster::GlusterTestbed;
using cluster::GlusterTestbedConfig;
using cluster::LustreTestbed;
using cluster::LustreTestbedConfig;
using cluster::NfsTestbed;
using cluster::NfsTestbedConfig;
using sim::Task;

// The same scripted op sequence applied to any FileSystemClient; returns the
// final read-back of the whole file.
sim::Task<Buffer> scripted_ops(fsapi::FileSystemClient& fs) {
  auto f = co_await fs.create("/x/script");
  (void)co_await fs.write(*f, 0, to_buffer("The quick brown fox"));
  (void)co_await fs.write(*f, 4, to_buffer("QUICK"));
  (void)co_await fs.write(*f, 40, to_buffer("jumps at offset forty"));
  auto st = co_await fs.stat("/x/script");
  EXPECT_TRUE(st.has_value());
  if (st) { EXPECT_EQ(st->size, 61u); }
  auto data = co_await fs.read(*f, 0, 100);
  co_return data ? *data : Buffer{};
}

TEST(CrossSystem, AllThreeFileSystemsAgree) {
  Buffer results[3];

  GlusterTestbedConfig g;
  g.n_mcds = 2;
  GlusterTestbed gtb(g);
  gtb.run([](GlusterTestbed& t, Buffer& out) -> Task<void> {
    out = co_await scripted_ops(t.client(0));
  }(gtb, results[0]));

  LustreTestbedConfig l;
  l.n_ds = 3;
  LustreTestbed ltb(l);
  ltb.run([](LustreTestbed& t, Buffer& out) -> Task<void> {
    out = co_await scripted_ops(t.client(0));
  }(ltb, results[1]));

  NfsTestbedConfig n;
  NfsTestbed ntb(n);
  ntb.run([](NfsTestbed& t, Buffer& out) -> Task<void> {
    out = co_await scripted_ops(t.client(0));
  }(ntb, results[2]));

  ASSERT_FALSE(results[0].empty());
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
  EXPECT_EQ(to_string(results[0].slice(0, 19)), "The QUICK brown fox");
}

TEST(Robustness, MemcachedParserSurvivesGarbage) {
  memcache::McCache cache(16 * kMiB);
  Rng rng(0xFAFF);
  for (int trial = 0; trial < 2000; ++trial) {
    ByteBuf junk;
    const std::size_t n = rng.below(64);
    for (std::size_t i = 0; i < n; ++i) {
      junk.put_u8(static_cast<std::uint8_t>(rng.below(256)));
    }
    // Occasionally make it look almost like a command.
    if (rng.chance(0.3)) {
      ByteBuf prefixed;
      const char* prefixes[] = {"get ", "set ", "delete ", "stats", "\r\n"};
      prefixed.put_raw(prefixes[rng.below(5)]);
      prefixed.put_buffer(junk.buffer());
      junk = std::move(prefixed);
    }
    auto resp = memcache::handle_request(cache, std::move(junk),
                                         static_cast<SimTime>(trial));
    EXPECT_GT(resp.size(), 0u);  // always answers, never crashes
  }
}

TEST(Robustness, MemcachedClientParsersSurviveGarbage) {
  Rng rng(0xBEEF);
  for (int trial = 0; trial < 2000; ++trial) {
    ByteBuf junk;
    const std::size_t n = rng.below(96);
    for (std::size_t i = 0; i < n; ++i) {
      junk.put_u8(static_cast<std::uint8_t>(rng.below(256)));
    }
    ByteBuf j1 = junk, j2 = junk, j3 = junk;
    junk.rewind();
    (void)memcache::parse_get_response(junk);
    (void)memcache::parse_store_response(j1);
    (void)memcache::parse_delete_response(j2);
    (void)memcache::parse_cas_response(j3);
    // No assertion needed: not crashing (and no UB under -fsanitize in dev
    // builds) is the property.
  }
}

TEST(Robustness, FopDecoderSurvivesGarbage) {
  Rng rng(0xD00D);
  for (int trial = 0; trial < 2000; ++trial) {
    ByteBuf junk;
    const std::size_t n = rng.below(80);
    for (std::size_t i = 0; i < n; ++i) {
      junk.put_u8(static_cast<std::uint8_t>(rng.below(256)));
    }
    auto req = gluster::FopRequest::decode(junk);
    junk.rewind();
    auto rep = gluster::FopReply::decode(junk);
    (void)req;
    (void)rep;
  }
}

TEST(Robustness, TruncatedValidMessagesRejected) {
  // Encode a valid request, then replay every truncation of it: the decoder
  // must reject each without crashing.
  gluster::FopRequest req;
  req.type = gluster::FopType::kWrite;
  req.path = "/some/long/path/name";
  req.offset = 123456;
  req.data = to_buffer("payload bytes here");
  const ByteBuf whole = req.encode();
  for (std::size_t cut = 0; cut < whole.size(); ++cut) {
    ByteBuf truncated(whole.buffer().slice(0, cut));
    EXPECT_FALSE(gluster::FopRequest::decode(truncated).has_value())
        << "cut=" << cut;
  }
}

TEST(Composition, ImcaOverDistributedNamespace) {
  // IMCa's client translator stacked over cluster/distribute with three
  // bricks: the cache tier must work regardless of which brick owns a path.
  // (The SMCache side lives per-brick, as it would in a real deployment.)
  net::SimContext ctx;

  std::vector<net::NodeId> mcd_nodes;
  std::vector<std::unique_ptr<memcache::McServer>> mcds;
  for (int i = 0; i < 2; ++i) {
    const auto n = ctx.fabric().add_node("mcd" + std::to_string(i)).id();
    mcd_nodes.push_back(n);
    mcds.push_back(
        std::make_unique<memcache::McServer>(ctx.rpc(), n, 1 * kGiB));
    mcds.back()->start();
  }

  core::ImcaConfig icfg;
  std::vector<std::unique_ptr<gluster::GlusterServer>> bricks;
  for (int b = 0; b < 3; ++b) {
    const auto n = ctx.fabric().add_node("brick" + std::to_string(b)).id();
    bricks.push_back(std::make_unique<gluster::GlusterServer>(ctx.rpc(), n));
    bricks.back()->push_translator(std::make_unique<core::SmCacheXlator>(
        ctx.loop(),
        std::make_unique<mcclient::McClient>(
            ctx.rpc(), n, mcd_nodes, core::make_selector(icfg)),
        icfg));
    bricks.back()->start();
  }

  const auto cnode = ctx.fabric().add_node("client").id();
  gluster::GlusterClient client(
      ctx.rpc(), cnode, gluster::GlusterTopology{{bricks[0]->node()}});
  std::vector<std::unique_ptr<gluster::ProtocolClient>> conns;
  for (const auto& b : bricks) {
    conns.push_back(
        std::make_unique<gluster::ProtocolClient>(ctx.rpc(), cnode, b->node()));
  }
  client.push_translator(
      std::make_unique<gluster::DistributeXlator>(std::move(conns)));
  client.push_translator(std::make_unique<core::CmCacheXlator>(
      std::make_unique<mcclient::McClient>(ctx.rpc(), cnode, mcd_nodes,
                                           core::make_selector(icfg)),
      icfg));

  ctx.run([](gluster::GlusterClient& fs) -> Task<void> {
    for (int i = 0; i < 12; ++i) {
      const std::string path = "/dist/f" + std::to_string(i);
      auto f = co_await fs.create(path);
      EXPECT_TRUE(f.has_value());
      (void)co_await fs.write(*f, 0, to_buffer("file " + std::to_string(i)));
      auto back = co_await fs.read(*f, 0, 10);
      EXPECT_TRUE(back.has_value());
      if (back) {
        EXPECT_EQ(to_string(*back), "file " + std::to_string(i));
      }
      auto st = co_await fs.stat(path);
      EXPECT_TRUE(st.has_value());
    }
  }(client));

  // The namespace really spread over the bricks.
  int bricks_with_files = 0;
  for (const auto& b : bricks) {
    bricks_with_files += b->object_store().file_count() > 0;
  }
  EXPECT_GE(bricks_with_files, 2);
}

TEST(Composition, SmallReadsOfWrittenFileComeFromBank) {
  // Every 2 KiB read of a file the mount just wrote is served by the MCD
  // bank: SMCache published the written blocks, so CMCache forwards none.
  GlusterTestbedConfig cfg;
  cfg.n_mcds = 1;
  GlusterTestbed tb(cfg);
  tb.run([](GlusterTestbed& t) -> Task<void> {
    auto& fs = t.client(0);
    auto f = co_await fs.create("/ra/file");
    (void)co_await fs.write(*f, 0, Buffer::zeros(64 * kKiB));
    for (std::uint64_t off = 0; off < 64 * kKiB; off += 2 * kKiB) {
      auto r = co_await fs.read(*f, off, 2 * kKiB);
      EXPECT_TRUE(r.has_value());
    }
    EXPECT_EQ(t.cmcache(0).stats().reads_forwarded, 0u);
  }(tb));
}

TEST(Sharing, OneWriterManyReadersThroughBank) {
  GlusterTestbedConfig cfg;
  cfg.n_clients = 9;  // writer + 8 readers
  cfg.n_mcds = 2;
  GlusterTestbed tb(cfg);
  tb.run([](GlusterTestbed& t) -> Task<void> {
    auto& writer = t.client(0);
    auto wf = co_await writer.create("/shared/board");
    (void)co_await writer.write(*wf, 0, to_buffer("revision-1"));

    // Every reader opens FIRST: each open purges the file's cached blocks
    // (paper §4.2), so opening between reads would defeat the sharing.
    std::vector<fsapi::OpenFile> handles;
    for (std::size_t r = 1; r <= 8; ++r) {
      auto rf = co_await t.client(r).open("/shared/board");
      EXPECT_TRUE(rf.has_value());
      handles.push_back(*rf);
    }

    const auto fops_before = t.server().fops_served();
    for (std::size_t r = 1; r <= 8; ++r) {
      auto data = co_await t.client(r).read(handles[r - 1], 0, 10);
      EXPECT_TRUE(data.has_value());
      if (data) { EXPECT_EQ(to_string(*data), "revision-1"); }
    }
    // The opens purged the bank, so exactly one read (the first) misses to
    // the server and republishes; the other seven come from the MCDs.
    EXPECT_EQ(t.server().fops_served() - fops_before, 1u);

    // After a write, SMCache republishes: every reader sees the new bytes
    // without any further purge/miss cycle.
    (void)co_await writer.write(*wf, 9, to_buffer("2"));
    const auto fops_mid = t.server().fops_served();
    for (std::size_t r = 1; r <= 8; ++r) {
      auto data = co_await t.client(r).read(handles[r - 1], 0, 10);
      EXPECT_TRUE(data.has_value());
      if (data) { EXPECT_EQ(to_string(*data), "revision-2"); }
    }
    EXPECT_EQ(t.server().fops_served(), fops_mid);
  }(tb));
}

TEST(Threaded, StalenessWindowClosesAfterQuiesce) {
  // In threaded mode a read racing the worker may see the pre-write block
  // (the paper's "updates ... being delayed", §4.4) — but after quiesce()
  // every reader sees the new bytes.
  GlusterTestbedConfig cfg;
  cfg.n_clients = 2;
  cfg.n_mcds = 1;
  cfg.imca.threaded_updates = true;
  GlusterTestbed tb(cfg);
  tb.run([](GlusterTestbed& t) -> Task<void> {
    auto& writer = t.client(0);
    auto& reader = t.client(1);
    auto wf = co_await writer.create("/async/file");
    (void)co_await writer.write(*wf, 0, to_buffer("AAAA"));
    co_await t.smcache()->quiesce();

    auto rf = co_await reader.open("/async/file");
    (void)co_await reader.read(*rf, 0, 4);  // warm: "AAAA" cached

    (void)co_await writer.write(*wf, 0, to_buffer("BBBB"));
    // No quiesce: the racing read may be stale or fresh — but must be one of
    // the two legal values, never garbage.
    auto racing = co_await reader.read(*rf, 0, 4);
    EXPECT_TRUE(racing.has_value());
    if (racing) {
      const std::string got = to_string(*racing);
      EXPECT_TRUE(got == "AAAA" || got == "BBBB") << got;
    }

    co_await t.smcache()->quiesce();
    auto settled = co_await reader.read(*rf, 0, 4);
    EXPECT_TRUE(settled.has_value());
    if (settled) { EXPECT_EQ(to_string(*settled), "BBBB"); }
  }(tb));
}

}  // namespace
}  // namespace imca
