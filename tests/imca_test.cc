// Tests for the IMCa core: block geometry, key scheme, and the CMCache /
// SMCache translators deployed end to end (client node + GlusterFS brick +
// MCD array on a simulated fabric).
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "cluster/testbed.h"
#include "common/rng.h"
#include "imca/block_mapper.h"
#include "imca/config.h"
#include "imca/keys.h"

namespace imca::core {
namespace {

using cluster::GlusterTestbed;
using sim::Task;

// --- keys ---

TEST(Keys, PaperKeyScheme) {
  EXPECT_EQ(data_key("/dir/f", 0), "/dir/f:0");
  EXPECT_EQ(data_key("/dir/f", 4096), "/dir/f:4096");
  EXPECT_EQ(stat_key("/dir/f"), "/dir/f:stat");
}

// --- BlockMapper (parameterized over the paper's block sizes) ---

class BlockMapperP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BlockMapperP, CoveringSpansExactlyTheRange) {
  const BlockMapper m(GetParam());
  const std::uint64_t bs = m.block_size();
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t offset = rng.below(10 * bs + 3);
    const std::uint64_t len = 1 + rng.below(6 * bs);
    const auto blocks = m.covering(offset, len);
    ASSERT_FALSE(blocks.empty());
    // First block contains offset; last contains the final byte.
    EXPECT_EQ(blocks.front(), offset / bs);
    EXPECT_EQ(blocks.back(), (offset + len - 1) / bs);
    // Contiguous, no gaps.
    for (std::size_t i = 1; i < blocks.size(); ++i) {
      EXPECT_EQ(blocks[i], blocks[i - 1] + 1);
    }
    // Aligned length covers the range and is block-multiple.
    const auto alen = m.aligned_length(offset, len);
    EXPECT_EQ(alen % bs, 0u);
    EXPECT_GE(m.align_down(offset) + alen, offset + len);
    EXPECT_EQ(alen / bs, blocks.size());
  }
}

TEST_P(BlockMapperP, AlignmentAlgebra) {
  const BlockMapper m(GetParam());
  const std::uint64_t bs = m.block_size();
  EXPECT_EQ(m.align_down(0), 0u);
  EXPECT_EQ(m.align_up(0), 0u);
  EXPECT_EQ(m.align_down(bs - 1), 0u);
  EXPECT_EQ(m.align_up(bs - 1), bs);
  EXPECT_EQ(m.align_down(bs), bs);
  EXPECT_EQ(m.align_up(bs), bs);
  EXPECT_TRUE(m.covering(123, 0).empty());
  EXPECT_EQ(m.aligned_length(123, 0), 0u);
}

INSTANTIATE_TEST_SUITE_P(PaperBlockSizes, BlockMapperP,
                         ::testing::Values(256, 2 * kKiB, 8 * kKiB));

// --- full IMCa deployment: one client, one brick, `n_mcds` daemons ---

cluster::GlusterTestbedConfig deployment(std::size_t n_mcds,
                                         ImcaConfig imca = {}) {
  cluster::GlusterTestbedConfig cfg;
  cfg.n_mcds = n_mcds;
  cfg.imca = imca;
  return cfg;
}

TEST(Imca, StatServedFromCacheAfterOpen) {
  GlusterTestbed d(deployment(2));
  d.run([](GlusterTestbed& dd) -> Task<void> {
    auto f = co_await dd.client(0).create("/file");
    (void)co_await dd.client(0).write(*f, 0, to_buffer("0123456789"));
    // Reopen publishes the stat structure into the MCDs.
    auto f2 = co_await dd.client(0).open("/file");
    EXPECT_TRUE(f2.has_value());
    const auto fops_before = dd.server().fops_served();
    auto st = co_await dd.client(0).stat("/file");
    EXPECT_TRUE(st.has_value());
    if (st) { EXPECT_EQ(st->size, 10u); }
    // The stat never reached the GlusterFS server.
    EXPECT_EQ(dd.server().fops_served(), fops_before);
  }(d));
  EXPECT_GE(d.cmcache(0).stats().stat_hits, 1u);
  EXPECT_EQ(d.cmcache(0).stats().stat_misses, 0u);
}

TEST(Imca, StatMissPropagatesToServer) {
  GlusterTestbed d(deployment(1));
  d.run([](GlusterTestbed& dd) -> Task<void> {
    auto f = co_await dd.client(0).create("/u");  // create publishes nothing
    (void)f;
    // Kill the daemon's contents so the stat item is gone.
    dd.mcd(0).cache().flush_all();
    auto st = co_await dd.client(0).stat("/u");
    EXPECT_TRUE(st.has_value());
  }(d));
  EXPECT_EQ(d.cmcache(0).stats().stat_hits, 0u);
  EXPECT_GE(d.cmcache(0).stats().stat_misses, 1u);
}

TEST(Imca, WritePopulatesCacheReadsSkipServer) {
  GlusterTestbed d(deployment(2));
  d.run([](GlusterTestbed& dd) -> Task<void> {
    auto f = co_await dd.client(0).create("/data");
    // Write 16 KiB; SMCache reads it back and publishes all 8 blocks (2K).
    std::vector<std::byte> pattern(16 * kKiB);
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      pattern[i] = static_cast<std::byte>(i & 0xFF);
    }
    (void)co_await dd.client(0).write(*f, 0, Buffer::take(std::move(pattern)));

    const auto fops_before = dd.server().fops_served();
    // Sequential 2 KiB reads: every block comes from the MCD array.
    for (std::uint64_t off = 0; off < 16 * kKiB; off += 2 * kKiB) {
      auto r = co_await dd.client(0).read(*f, off, 2 * kKiB);
      EXPECT_TRUE(r.has_value());
      if (r) {
        EXPECT_EQ(r->size(), 2 * kKiB);
        for (std::size_t i = 0; i < r->size(); ++i) {
          EXPECT_EQ(r->at(i), static_cast<std::byte>((off + i) & 0xFF));
        }
      }
    }
    EXPECT_EQ(dd.server().fops_served(), fops_before);  // zero server reads
  }(d));
  EXPECT_EQ(d.cmcache(0).stats().reads_from_cache, 8u);
  EXPECT_EQ(d.cmcache(0).stats().reads_forwarded, 0u);
}

TEST(Imca, ReadMissForwardsAndRepopulates) {
  GlusterTestbed d(deployment(2));
  d.run([](GlusterTestbed& dd) -> Task<void> {
    auto f = co_await dd.client(0).create("/miss");
    (void)co_await dd.client(0).write(*f, 0, Buffer::zeros(8 * kKiB));
    // Nuke the cache bank: every block gone.
    for (std::size_t i = 0; i < dd.n_mcds(); ++i) {
      dd.mcd(i).cache().flush_all();
    }

    auto r1 = co_await dd.client(0).read(*f, 0, 2 * kKiB);  // miss -> server
    EXPECT_TRUE(r1.has_value());
    EXPECT_EQ(dd.cmcache(0).stats().reads_forwarded, 1u);

    auto r2 = co_await dd.client(0).read(*f, 0, 2 * kKiB);  // repopulated
    EXPECT_TRUE(r2.has_value());
    EXPECT_EQ(dd.cmcache(0).stats().reads_from_cache, 1u);
  }(d));
}

TEST(Imca, UnalignedReadAssemblesAcrossBlocks) {
  GlusterTestbed d(deployment(2));
  d.run([](GlusterTestbed& dd) -> Task<void> {
    auto f = co_await dd.client(0).create("/unaligned");
    std::vector<std::byte> pattern(8 * kKiB);
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      pattern[i] = static_cast<std::byte>((i * 7) & 0xFF);
    }
    const Buffer payload = Buffer::take(std::move(pattern));
    (void)co_await dd.client(0).write(*f, 0, payload);
    // Read straddling three 2K blocks at odd offsets, served from cache.
    auto r = co_await dd.client(0).read(*f, 1500, 4000);
    EXPECT_TRUE(r.has_value());
    if (r) {
      EXPECT_EQ(r->size(), 4000u);
      for (std::size_t i = 0; i < r->size(); ++i) {
        EXPECT_EQ(r->at(i), payload.at(1500 + i));
      }
    }
  }(d));
  EXPECT_EQ(d.cmcache(0).stats().reads_from_cache, 1u);
}

TEST(Imca, ShortReadAtEofThroughCache) {
  GlusterTestbed d(deployment(1));
  d.run([](GlusterTestbed& dd) -> Task<void> {
    auto f = co_await dd.client(0).create("/short");
    (void)co_await dd.client(0).write(*f, 0, to_buffer("abc"));  // 3 bytes
    auto r = co_await dd.client(0).read(*f, 0, 2 * kKiB);  // short block cached
    EXPECT_TRUE(r.has_value());
    if (r) { EXPECT_EQ(to_string(*r), "abc"); }
    auto r2 = co_await dd.client(0).read(*f, 2, 100);
    EXPECT_TRUE(r2.has_value());
    if (r2) { EXPECT_EQ(to_string(*r2), "c"); }
  }(d));
}

TEST(Imca, WriteAfterWriteReadsFresh) {
  GlusterTestbed d(deployment(2));
  d.run([](GlusterTestbed& dd) -> Task<void> {
    auto f = co_await dd.client(0).create("/fresh");
    (void)co_await dd.client(0).write(*f, 0, to_buffer("old old old!"));
    auto r1 = co_await dd.client(0).read(*f, 0, 12);
    EXPECT_TRUE(r1.has_value());
    (void)co_await dd.client(0).write(*f, 4, to_buffer("NEW"));
    auto r2 = co_await dd.client(0).read(*f, 0, 12);
    EXPECT_TRUE(r2.has_value());
    if (r2) { EXPECT_EQ(to_string(*r2), "old NEW old!"); }
    // Stat reflects the mtime bump without asking the server.
    auto st = co_await dd.client(0).stat("/fresh");
    EXPECT_TRUE(st.has_value());
    if (st) { EXPECT_EQ(st->size, 12u); }
  }(d));
}

TEST(Imca, HoleWritePurgesStaleEofBlock) {
  // Regression: a short block cached at the old EOF must not be served as
  // EOF after a later write extends the file past it.
  GlusterTestbed d(deployment(2));
  d.run([](GlusterTestbed& dd) -> Task<void> {
    auto f = co_await dd.client(0).create("/hole");
    (void)co_await dd.client(0).write(*f, 0, to_buffer("tiny"));     // 4 bytes
    auto warm = co_await dd.client(0).read(*f, 0, 2 * kKiB);        // caches short block
    EXPECT_TRUE(warm.has_value());
    // Extend far past the old EOF, leaving a zero hole.
    (void)co_await dd.client(0).write(*f, 10 * kKiB, to_buffer("tail"));
    // A read across the old boundary must see 2K of data (zeros after
    // "tiny"), not a 4-byte EOF.
    auto r = co_await dd.client(0).read(*f, 0, 2 * kKiB);
    EXPECT_TRUE(r.has_value());
    if (r) {
      EXPECT_EQ(r->size(), 2 * kKiB);
      EXPECT_EQ(to_string(r->slice(0, 4)), "tiny");
      EXPECT_EQ(r->at(100), std::byte{0});
    }
    auto st = co_await dd.client(0).stat("/hole");
    EXPECT_TRUE(st.has_value());
    if (st) { EXPECT_EQ(st->size, 10 * kKiB + 4); }
  }(d));
}

TEST(Imca, DeletePurgesNoFalsePositives) {
  GlusterTestbed d(deployment(2));
  d.run([](GlusterTestbed& dd) -> Task<void> {
    auto f = co_await dd.client(0).create("/reborn");
    (void)co_await dd.client(0).write(*f, 0, to_buffer("FIRST LIFE!!"));
    (void)co_await dd.client(0).read(*f, 0, 12);
    (void)co_await dd.client(0).close(*f);
    (void)co_await dd.client(0).unlink("/reborn");
    // Recreate with different, shorter contents.
    auto f2 = co_await dd.client(0).create("/reborn");
    (void)co_await dd.client(0).write(*f2, 0, to_buffer("2nd"));
    auto r = co_await dd.client(0).read(*f2, 0, 100);
    EXPECT_TRUE(r.has_value());
    if (r) { EXPECT_EQ(to_string(*r), "2nd"); }
    auto st = co_await dd.client(0).stat("/reborn");
    EXPECT_TRUE(st.has_value());
    if (st) { EXPECT_EQ(st->size, 3u); }
  }(d));
}

TEST(Imca, ClosePurgesFileData) {
  GlusterTestbed d(deployment(1));
  d.run([](GlusterTestbed& dd) -> Task<void> {
    auto f = co_await dd.client(0).create("/closed");
    (void)co_await dd.client(0).write(*f, 0, Buffer::zeros(4 * kKiB));
    EXPECT_GT(dd.mcd(0).cache().item_count(), 0u);
    (void)co_await dd.client(0).close(*f);
    // Close discarded the blocks and the stat item.
    EXPECT_EQ(dd.mcd(0).cache().item_count(), 0u);
  }(d));
}

TEST(Imca, McdFailuresNeverCorruptData) {
  // Paper §4.4: writes are durable at the server before MCD updates, so
  // killing daemons at any point must never change what reads return.
  GlusterTestbed d(deployment(3));
  d.run([](GlusterTestbed& dd) -> Task<void> {
    auto f = co_await dd.client(0).create("/durable");
    std::vector<std::byte> pattern(12 * kKiB);
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      pattern[i] = static_cast<std::byte>((i * 13) & 0xFF);
    }
    const Buffer payload = Buffer::take(std::move(pattern));
    (void)co_await dd.client(0).write(*f, 0, payload);
    (void)co_await dd.client(0).read(*f, 0, 12 * kKiB);  // warm the bank

    dd.mcd(1).stop();  // kill one daemon mid-run
    auto r1 = co_await dd.client(0).read(*f, 0, 12 * kKiB);
    EXPECT_TRUE(r1.has_value());
    if (r1) { EXPECT_EQ(*r1, payload); }

    dd.mcd(0).stop();
    dd.mcd(2).stop();  // whole bank down
    auto r2 = co_await dd.client(0).read(*f, 3000, 5000);
    EXPECT_TRUE(r2.has_value());
    if (r2) {
      EXPECT_TRUE(r2->content_equals(payload.slice(3000, r2->size())));
    }
    // Writes still work with the bank gone.
    (void)co_await dd.client(0).write(*f, 0, to_buffer("post-mortem"));
    auto r3 = co_await dd.client(0).read(*f, 0, 11);
    EXPECT_TRUE(r3.has_value());
    if (r3) { EXPECT_EQ(to_string(*r3), "post-mortem"); }
  }(d));
}

TEST(Imca, ThreadedUpdatesEventuallyCoherent) {
  ImcaConfig cfg;
  cfg.threaded_updates = true;
  GlusterTestbed d(deployment(2, cfg));
  d.run([](GlusterTestbed& dd) -> Task<void> {
    auto f = co_await dd.client(0).create("/async");
    (void)co_await dd.client(0).write(*f, 0, to_buffer("deferred data"));
    co_await dd.smcache()->quiesce();  // wait for the worker to publish
    const auto fops_before = dd.server().fops_served();
    auto r = co_await dd.client(0).read(*f, 0, 13);
    EXPECT_TRUE(r.has_value());
    if (r) { EXPECT_EQ(to_string(*r), "deferred data"); }
    EXPECT_EQ(dd.server().fops_served(), fops_before);  // served by the bank
  }(d));
  EXPECT_GE(d.smcache()->stats().worker_jobs, 1u);
}

TEST(Imca, ThreadedWriteCheaperThanSyncWrite) {
  // Fig 6(c): the sync read-back sits in the write path; the worker thread
  // removes it.
  auto measure = [](bool threaded) {
    ImcaConfig cfg;
    cfg.threaded_updates = threaded;
    GlusterTestbed d(deployment(1, cfg));
    SimDuration write_time = 0;
    d.run([](GlusterTestbed& dd, SimDuration& out_write_time) -> Task<void> {
      auto f = co_await dd.client(0).create("/w");
      const SimTime t0 = dd.loop().now();
      for (int i = 0; i < 32; ++i) {
        (void)co_await dd.client(0).write(
            *f, static_cast<std::uint64_t>(i) * 2048,
            Buffer::take(std::vector<std::byte>(2048, std::byte{1})));
      }
      out_write_time = dd.loop().now() - t0;
    }(d, write_time));
    return write_time;
  };
  const SimDuration sync_t = measure(false);
  const SimDuration threaded_t = measure(true);
  EXPECT_LT(threaded_t, sync_t);
}

TEST(Imca, TruncatePurgesTailBlocks) {
  GlusterTestbed d(deployment(2));
  d.run([](GlusterTestbed& dd) -> Task<void> {
    auto f = co_await dd.client(0).create("/trunc");
    (void)co_await dd.client(0).write(
        *f, 0, Buffer::take(std::vector<std::byte>(8 * kKiB, std::byte{7})));
    (void)co_await dd.client(0).read(*f, 0, 8 * kKiB);  // bank fully warm

    EXPECT_TRUE(
        (co_await dd.client(0).truncate("/trunc", 3 * kKiB)).has_value());
    // Reads past the new EOF must be empty, not stale cached bytes.
    auto past = co_await dd.client(0).read(*f, 4 * kKiB, 1 * kKiB);
    EXPECT_TRUE(past.has_value());
    if (past) { EXPECT_TRUE(past->empty()); }
    // The surviving prefix is intact, and stat shows the new size (cached).
    auto head = co_await dd.client(0).read(*f, 0, 3 * kKiB);
    EXPECT_TRUE(head.has_value());
    if (head) {
      EXPECT_EQ(head->size(), 3 * kKiB);
      EXPECT_EQ(head->at(0), std::byte{7});
    }
    auto st = co_await dd.client(0).stat("/trunc");
    EXPECT_TRUE(st.has_value());
    if (st) { EXPECT_EQ(st->size, 3 * kKiB); }
    // Growing back exposes zeros, not resurrected bytes.
    EXPECT_TRUE(
        (co_await dd.client(0).truncate("/trunc", 6 * kKiB)).has_value());
    auto regrown = co_await dd.client(0).read(*f, 4 * kKiB, 16);
    EXPECT_TRUE(regrown.has_value());
    if (regrown) {
      EXPECT_EQ(regrown->size(), 16u);
      EXPECT_EQ(regrown->at(0), std::byte{0});
    }
  }(d));
}

TEST(Imca, RenameMovesCacheIdentity) {
  GlusterTestbed d(deployment(2));
  d.run([](GlusterTestbed& dd) -> Task<void> {
    auto f = co_await dd.client(0).create("/old-name");
    (void)co_await dd.client(0).write(*f, 0,
                                      to_buffer("travels with the file"));
    (void)co_await dd.client(0).read(*f, 0, 21);  // cached under /old-name

    EXPECT_TRUE((co_await dd.client(0).rename("/old-name", "/new-name"))
                    .has_value());
    // The open handle follows the rename.
    auto via_fd = co_await dd.client(0).read(*f, 0, 21);
    EXPECT_TRUE(via_fd.has_value());
    if (via_fd) { EXPECT_EQ(to_string(*via_fd), "travels with the file"); }
    // The old name is gone everywhere — including the stat cache.
    EXPECT_EQ((co_await dd.client(0).stat("/old-name")).error(), Errc::kNoEnt);
    auto st = co_await dd.client(0).stat("/new-name");
    EXPECT_TRUE(st.has_value());
    if (st) { EXPECT_EQ(st->size, 21u); }
  }(d));
}

TEST(Imca, RenameOverExistingTargetPurgesItsCache) {
  GlusterTestbed d(deployment(1));
  d.run([](GlusterTestbed& dd) -> Task<void> {
    auto fa = co_await dd.client(0).create("/a");
    (void)co_await dd.client(0).write(*fa, 0, to_buffer("contents of A"));
    auto fb = co_await dd.client(0).create("/b");
    (void)co_await dd.client(0).write(*fb, 0,
                                      to_buffer("victim B, longer text"));
    (void)co_await dd.client(0).read(*fb, 0, 21);  // B cached

    EXPECT_TRUE((co_await dd.client(0).rename("/a", "/b")).has_value());
    // /b must now read as A's contents, never the cached victim bytes.
    auto fb2 = co_await dd.client(0).open("/b");
    auto data = co_await dd.client(0).read(*fb2, 0, 100);
    EXPECT_TRUE(data.has_value());
    if (data) { EXPECT_EQ(to_string(*data), "contents of A"); }
  }(d));
}

// --- randomized end-to-end integrity (property test) ---

class ImcaIntegrityP
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(ImcaIntegrityP, RandomOpsMatchReferenceModel) {
  const auto [block_size, n_mcds] = GetParam();
  ImcaConfig cfg;
  cfg.block_size = block_size;
  GlusterTestbed d(deployment(n_mcds, cfg));

  d.run([](GlusterTestbed& dd, std::uint64_t bs) -> Task<void> {
    Rng rng(0xC0FFEE ^ bs);
    std::map<std::string, std::string> model;  // ground truth
    std::map<std::string, fsapi::OpenFile> open_files;
    const std::vector<std::string> names = {"/p/a", "/p/b", "/p/c", "/p/d"};

    for (int step = 0; step < 400; ++step) {
      const std::string& path = names[rng.below(names.size())];
      const bool exists = model.contains(path);
      switch (rng.below(8)) {
        case 0: {  // create
          auto f = co_await dd.client(0).create(path);
          if (exists) {
            EXPECT_EQ(f.error(), Errc::kExist) << path;
          } else {
            EXPECT_TRUE(f.has_value()) << path;
            model[path] = "";
            if (f) open_files[path] = *f;
          }
          break;
        }
        case 1: {  // write
          if (!open_files.contains(path)) break;
          const std::uint64_t max_off = model[path].size() + 3000;
          const std::uint64_t off = rng.below(max_off + 1);
          const std::uint64_t len = 1 + rng.below(5000);
          std::string data(len, '\0');
          for (auto& ch : data) {
            ch = static_cast<char>('a' + rng.below(26));
          }
          auto w = co_await dd.client(0).write(open_files[path], off,
                                             to_buffer(data));
          EXPECT_TRUE(w.has_value()) << path;
          std::string& ref = model[path];
          if (ref.size() < off + len) ref.resize(off + len, '\0');
          ref.replace(off, len, data);
          break;
        }
        case 2:
        case 3: {  // read (weighted: reads dominate the paper's workloads)
          if (!open_files.contains(path)) break;
          const std::string& ref = model[path];
          const std::uint64_t off = rng.below(ref.size() + 2000 + 1);
          const std::uint64_t len = 1 + rng.below(6000);
          auto r = co_await dd.client(0).read(open_files[path], off, len);
          EXPECT_TRUE(r.has_value()) << path;
          if (r) {
            std::string expect;
            if (off < ref.size()) {
              expect = ref.substr(off, std::min<std::uint64_t>(
                                           len, ref.size() - off));
            }
            EXPECT_EQ(to_string(*r), expect)
                << path << " off=" << off << " len=" << len
                << " step=" << step;
          }
          break;
        }
        case 4: {  // stat
          auto st = co_await dd.client(0).stat(path);
          if (exists) {
            EXPECT_TRUE(st.has_value()) << path;
            if (st) { EXPECT_EQ(st->size, model[path].size()) << path; }
          } else {
            EXPECT_EQ(st.error(), Errc::kNoEnt) << path;
          }
          break;
        }
        case 5: {  // unlink (rarely; close first if open)
          if (!exists || rng.below(4) != 0) break;
          if (open_files.contains(path)) {
            (void)co_await dd.client(0).close(open_files[path]);
            open_files.erase(path);
          }
          EXPECT_TRUE((co_await dd.client(0).unlink(path)).has_value()) << path;
          model.erase(path);
          break;
        }
        case 6: {  // truncate (shrink or grow)
          if (!exists) break;
          const std::uint64_t size = rng.below(model[path].size() + 4000 + 1);
          EXPECT_TRUE(
              (co_await dd.client(0).truncate(path, size)).has_value())
              << path;
          model[path].resize(size, '\0');
          break;
        }
        case 7: {  // rename (only when the target is not open: a handle to
                   // a replaced file keeps the old bytes under POSIX, which
                   // this path-keyed model intentionally does not support)
          if (!exists) break;
          const std::string& target = names[rng.below(names.size())];
          if (target == path || open_files.contains(target)) break;
          EXPECT_TRUE(
              (co_await dd.client(0).rename(path, target)).has_value())
              << path << "->" << target;
          model[target] = std::move(model[path]);
          model.erase(path);
          if (open_files.contains(path)) {
            open_files[target] = open_files[path];
            open_files.erase(path);
          }
          break;
        }
      }
    }
  }(d, block_size));

  // The cache did real work during the run.
  EXPECT_GT(d.cmcache(0).stats().blocks_requested, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    BlockSizesAndBankWidths, ImcaIntegrityP,
    ::testing::Values(std::tuple{256ull, 1ul}, std::tuple{2 * kKiB, 2ul},
                      std::tuple{2 * kKiB, 4ul}, std::tuple{8 * kKiB, 3ul}));

}  // namespace
}  // namespace imca::core
