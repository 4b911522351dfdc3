// Tests for the Lustre-like comparator: stripe mapping, MDS namespace and
// lock manager, DS storage, warm/cold client cache behaviour and coherent
// sharing between clients.
#include <gtest/gtest.h>

#include "cluster/testbed.h"
#include "lustre/stripe.h"

namespace imca::lustre {
namespace {

using cluster::LustreTestbed;
using sim::Task;

// --- StripeMapper ---

TEST(Stripe, SingleServerIsIdentity) {
  StripeMapper m(1, 1 * kMiB);
  const auto pieces = m.map(123, 5 * kMiB);
  std::uint64_t total = 0;
  for (const auto& p : pieces) {
    EXPECT_EQ(p.server, 0u);
    EXPECT_EQ(p.local_offset, p.global_offset);
    total += p.length;
  }
  EXPECT_EQ(total, 5 * kMiB);
}

TEST(Stripe, RoundRobinsAcrossServers) {
  StripeMapper m(4, 1 * kMiB);
  const auto pieces = m.map(0, 4 * kMiB);
  ASSERT_EQ(pieces.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(pieces[i].server, i);
    EXPECT_EQ(pieces[i].local_offset, 0u);  // first stripe on each server
    EXPECT_EQ(pieces[i].length, 1 * kMiB);
  }
}

TEST(Stripe, PiecesCoverRangeExactly) {
  StripeMapper m(3, 1 * kMiB);
  const std::uint64_t off = 700 * kKiB;
  const std::uint64_t len = 3 * kMiB + 123;
  std::uint64_t expect = off;
  for (const auto& p : m.map(off, len)) {
    EXPECT_EQ(p.global_offset, expect);
    expect += p.length;
  }
  EXPECT_EQ(expect, off + len);
}

TEST(Stripe, SecondStripeOnSameServerIsContiguousLocally) {
  StripeMapper m(2, 1 * kMiB);
  // Global stripes 0,2 live on server 0 at local offsets 0 and 1MiB.
  const auto a = m.map(0, 1).front();
  const auto b = m.map(2 * kMiB, 1).front();
  EXPECT_EQ(a.server, 0u);
  EXPECT_EQ(b.server, 0u);
  EXPECT_EQ(b.local_offset, 1 * kMiB);
}

// --- deployment: an MDS, `n_ds` data servers and `n_clients` clients ---

cluster::LustreTestbedConfig deployment(std::size_t n_ds,
                                        std::size_t n_clients = 1,
                                        DsParams ds = {}) {
  cluster::LustreTestbedConfig cfg;
  cfg.n_ds = n_ds;
  cfg.n_clients = n_clients;
  cfg.ds = ds;
  return cfg;
}

TEST(Lustre, CreateWriteReadRoundTrip) {
  LustreTestbed rig(deployment(4));
  rig.run([](LustreTestbed& r) -> Task<void> {
    auto& fs = r.client(0);
    auto f = co_await fs.create("/big");
    EXPECT_TRUE(f.has_value());
    // 3.5 MiB spans all four data servers.
    std::vector<std::byte> pattern(3 * kMiB + 512 * kKiB);
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      pattern[i] = static_cast<std::byte>((i / kMiB + 1) & 0xFF);
    }
    const Buffer payload = Buffer::take(std::move(pattern));
    EXPECT_TRUE((co_await fs.write(*f, 0, payload)).has_value());
    auto st = co_await fs.stat("/big");
    EXPECT_TRUE(st.has_value());
    if (st) { EXPECT_EQ(st->size, payload.size()); }
    auto back = co_await fs.read(*f, 0, payload.size());
    EXPECT_TRUE(back.has_value());
    if (back) { EXPECT_EQ(*back, payload); }
    // Unaligned read inside the third stripe.
    auto mid = co_await fs.read(*f, 2 * kMiB + 100, 50);
    EXPECT_TRUE(mid.has_value());
    if (mid) {
      EXPECT_EQ(mid->size(), 50u);
      EXPECT_EQ(mid->at(0), static_cast<std::byte>(3));
    }
  }(rig));
  // Stripes landed on every DS.
  for (std::size_t i = 0; i < rig.n_ds(); ++i) {
    EXPECT_GT(rig.ds(i).objects().total_bytes(), 0u);
  }
}

TEST(Lustre, WarmReadIsMuchCheaperThanCold) {
  LustreTestbed rig(deployment(4));
  SimDuration cold_t = 0, warm_t = 0;
  rig.run([](LustreTestbed& r, SimDuration& out_cold_t,
             SimDuration& out_warm_t) -> Task<void> {
    auto& fs = r.client(0);
    auto f = co_await fs.create("/lat");
    (void)co_await fs.write(*f, 0, Buffer::zeros(1 * kMiB));
    fs.cold();  // unmount/remount: reads stay remote
    SimTime t0 = r.loop().now();
    (void)co_await fs.read(*f, 0, 64 * kKiB);
    out_cold_t = r.loop().now() - t0;
    fs.warm();  // fresh mount allowed to cache again
    (void)co_await fs.read(*f, 0, 64 * kKiB);  // populates the client cache
    t0 = r.loop().now();
    (void)co_await fs.read(*f, 0, 64 * kKiB);  // now served locally
    out_warm_t = r.loop().now() - t0;
  }(rig, cold_t, warm_t));
  EXPECT_GT(cold_t, 5 * warm_t);
  EXPECT_EQ(rig.client(0).cache_hits(), 1u);
  EXPECT_EQ(rig.client(0).cache_misses(), 2u);  // cold read + warming read
}

TEST(Lustre, ColdDropsLocksToo) {
  LustreTestbed rig(deployment(1));
  rig.run([](LustreTestbed& r) -> Task<void> {
    auto& fs = r.client(0);
    auto f = co_await fs.create("/locks");
    (void)co_await fs.write(*f, 0, to_buffer("x"));
    const auto before = r.mds().lock_requests();
    (void)co_await fs.read(*f, 0, 1);  // lock cached from the write? read lock
    (void)co_await fs.read(*f, 0, 1);  // no new lock RPC
    EXPECT_LE(r.mds().lock_requests(), before + 1);
    fs.cold();
    (void)co_await fs.read(*f, 0, 1);  // must re-acquire
    EXPECT_GE(r.mds().lock_requests(), before + 1);
  }(rig));
}

TEST(Lustre, WriterRevokesReadersCache) {
  LustreTestbed rig(deployment(2, /*n_clients=*/2));
  rig.run([](LustreTestbed& r) -> Task<void> {
    auto& reader = r.client(0);
    auto& writer = r.client(1);
    auto fr = co_await reader.create("/shared");
    (void)co_await reader.write(*fr, 0, to_buffer("version-1 data"));
    (void)co_await reader.read(*fr, 0, 14);  // reader now caches the pages

    auto fw = co_await writer.open("/shared");
    EXPECT_TRUE(fw.has_value());
    // Writer's PW lock must revoke the reader.
    EXPECT_TRUE((co_await writer.write(*fw, 0, to_buffer("version-2 data")))
                    .has_value());
    EXPECT_GE(r.mds().revocations(), 1u);

    // Reader sees the new bytes (coherent), paying a fresh fetch.
    const auto misses_before = r.client(0).cache_misses();
    auto back = co_await reader.read(*fr, 0, 14);
    EXPECT_TRUE(back.has_value());
    if (back) { EXPECT_EQ(to_string(*back), "version-2 data"); }
    EXPECT_GT(r.client(0).cache_misses(), misses_before);
  }(rig));
}

TEST(Lustre, ConcurrentReadersShareTheLock) {
  LustreTestbed rig(deployment(1, /*n_clients=*/4));
  rig.run([](LustreTestbed& r) -> Task<void> {
    auto f0 = co_await r.client(0).create("/ro");
    (void)co_await r.client(0).write(*f0, 0, to_buffer("read-mostly"));
    for (fsapi::FileSystemClient* c : r.clients()) {
      auto f = co_await c->open("/ro");
      auto data = co_await c->read(*f, 0, 11);
      EXPECT_TRUE(data.has_value());
      if (data) { EXPECT_EQ(to_string(*data), "read-mostly"); }
    }
    // Readers never revoke each other.
    EXPECT_EQ(r.mds().revocations(), 1u);  // only the writer->reader upgrade
  }(rig));
}

TEST(Lustre, MoreDataServersMoreStreamBandwidth) {
  auto run = [](std::size_t n_ds) {
    // Two spindles per DS, so one DS's media rate (not the client NIC) is
    // the bottleneck and striping across DSs is visible.
    DsParams dsp;
    dsp.raid_members = 2;
    LustreTestbed rig(deployment(n_ds, 1, dsp));
    SimDuration elapsed = 0;
    rig.run([](LustreTestbed& r, SimDuration& out_elapsed) -> Task<void> {
      auto& fs = r.client(0);
      auto f = co_await fs.create("/stream");
      (void)co_await fs.write(*f, 0, Buffer::zeros(64 * kMiB));
      fs.cold();
      for (std::size_t i = 0; i < r.n_ds(); ++i) {
        r.ds(i).device().drop_caches();  // force media
      }
      const SimTime t0 = r.loop().now();
      for (std::uint64_t off = 0; off < 64 * kMiB; off += 4 * kMiB) {
        (void)co_await fs.read(f.value(), off, 4 * kMiB);
      }
      out_elapsed = r.loop().now() - t0;
    }(rig, elapsed));
    return elapsed;
  };
  const auto one = run(1);
  const auto four = run(4);
  EXPECT_LT(static_cast<double>(four), 0.6 * static_cast<double>(one));
}

TEST(Lustre, UnlinkRemovesEverywhere) {
  LustreTestbed rig(deployment(2));
  rig.run([](LustreTestbed& r) -> Task<void> {
    auto& fs = r.client(0);
    auto f = co_await fs.create("/gone");
    (void)co_await fs.write(*f, 0, Buffer::zeros(3 * kMiB));
    EXPECT_TRUE((co_await fs.unlink("/gone")).has_value());
    EXPECT_EQ((co_await fs.stat("/gone")).error(), Errc::kNoEnt);
  }(rig));
  for (std::size_t i = 0; i < rig.n_ds(); ++i) {
    EXPECT_EQ(rig.ds(i).objects().total_bytes(), 0u);
  }
}

TEST(Lustre, TruncateShrinksAcrossStripes) {
  LustreTestbed rig(deployment(3));
  rig.run([](LustreTestbed& r) -> Task<void> {
    auto& fs = r.client(0);
    auto f = co_await fs.create("/t");
    std::vector<std::byte> pattern(5 * kMiB);
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      pattern[i] = static_cast<std::byte>((i / kMiB) + 1);
    }
    (void)co_await fs.write(*f, 0, Buffer::take(std::move(pattern)));
    // Shrink to 2.5 MiB: stripes on all three servers are affected.
    EXPECT_TRUE((co_await fs.truncate("/t", 2 * kMiB + 512 * kKiB))
                    .has_value());
    auto st = co_await fs.stat("/t");
    EXPECT_TRUE(st.has_value());
    if (st) { EXPECT_EQ(st->size, 2 * kMiB + 512 * kKiB); }
    auto back = co_await fs.read(*f, 0, 5 * kMiB);
    EXPECT_TRUE(back.has_value());
    if (back) {
      EXPECT_EQ(back->size(), 2 * kMiB + 512 * kKiB);
      EXPECT_EQ(back->at(2 * kMiB + 100), std::byte{3});  // third MiB intact
    }
    // Grow back: zeros, not resurrected stripe bytes.
    EXPECT_TRUE((co_await fs.truncate("/t", 4 * kMiB)).has_value());
    auto tail = co_await fs.read(*f, 3 * kMiB, 16);
    EXPECT_TRUE(tail.has_value());
    if (tail) {
      EXPECT_EQ(tail->size(), 16u);
      EXPECT_EQ(tail->at(0), std::byte{0});
    }
  }(rig));
}

TEST(Lustre, RenameMovesStripesAndLocks) {
  LustreTestbed rig(deployment(2));
  rig.run([](LustreTestbed& r) -> Task<void> {
    auto& fs = r.client(0);
    auto f = co_await fs.create("/was");
    (void)co_await fs.write(
        *f, 0, Buffer::take(std::vector<std::byte>(3 * kMiB, std::byte{9})));
    EXPECT_TRUE((co_await fs.rename("/was", "/is")).has_value());
    EXPECT_EQ((co_await fs.stat("/was")).error(), Errc::kNoEnt);
    auto st = co_await fs.stat("/is");
    EXPECT_TRUE(st.has_value());
    if (st) { EXPECT_EQ(st->size, 3 * kMiB); }
    // The open handle follows the rename and data is intact on both DSs.
    auto back = co_await fs.read(*f, kMiB + 5, 10);
    EXPECT_TRUE(back.has_value());
    if (back) { EXPECT_EQ(back->at(0), std::byte{9}); }
  }(rig));
}

TEST(Lustre, StatGoesToMdsEveryTime) {
  LustreTestbed rig(deployment(1));
  rig.run([](LustreTestbed& r) -> Task<void> {
    auto& fs = r.client(0);
    auto f = co_await fs.create("/meta");
    (void)f;
    const SimTime t0 = r.loop().now();
    (void)co_await fs.stat("/meta");
    const SimDuration first = r.loop().now() - t0;
    const SimTime t1 = r.loop().now();
    (void)co_await fs.stat("/meta");
    const SimDuration second = r.loop().now() - t1;
    // No client-side attr caching: both stats pay the MDS round trip.
    EXPECT_GT(second, first / 2);
  }(rig));
}

}  // namespace
}  // namespace imca::lustre
