// Tests for the NFS-like motivation server: basic semantics, wire chunking,
// transport sensitivity and the Fig 1 page-cache bandwidth cliff.
#include <gtest/gtest.h>

#include <utility>

#include "cluster/testbed.h"

namespace imca::nfs {
namespace {

using cluster::NfsTestbed;
using sim::Task;

// One server and one client over `transport`.
cluster::NfsTestbedConfig deployment(net::TransportParams transport,
                                     NfsServerParams server = {}) {
  cluster::NfsTestbedConfig cfg;
  cfg.transport = std::move(transport);
  cfg.server = server;
  return cfg;
}

TEST(Nfs, BasicSemantics) {
  NfsTestbed rig(deployment(net::ipoib_rc()));
  rig.run([](NfsTestbed& r) -> Task<void> {
    auto& fs = r.client(0);
    auto f = co_await fs.create("/f");
    EXPECT_TRUE(f.has_value());
    EXPECT_TRUE((co_await fs.write(*f, 0, to_buffer("nfs data"))).has_value());
    auto back = co_await fs.read(*f, 4, 4);
    EXPECT_TRUE(back.has_value());
    if (back) { EXPECT_EQ(to_string(*back), "data"); }
    auto st = co_await fs.stat("/f");
    EXPECT_TRUE(st.has_value());
    if (st) { EXPECT_EQ(st->size, 8u); }
    EXPECT_TRUE((co_await fs.unlink("/f")).has_value());
    EXPECT_EQ((co_await fs.stat("/f")).error(), Errc::kNoEnt);
  }(rig));
}

TEST(Nfs, LargeReadsChunkAtRsize) {
  NfsTestbed rig(deployment(net::ipoib_rc()));
  rig.run([](NfsTestbed& r) -> Task<void> {
    auto& fs = r.client(0);
    auto f = co_await fs.create("/big");
    (void)co_await fs.write(*f, 0, Buffer::zeros(1 * kMiB));
    const auto msgs_before = r.fabric().messages_sent();
    auto back = co_await fs.read(*f, 0, 1 * kMiB);
    EXPECT_TRUE(back.has_value());
    if (back) { EXPECT_EQ(back->size(), 1 * kMiB); }
    // 1 MiB at 64 KiB rsize = 16 requests + 16 replies.
    EXPECT_EQ(r.fabric().messages_sent() - msgs_before, 32u);
  }(rig));
}

TEST(Nfs, TransportOrderingRdmaFastest) {
  auto measure = [](net::TransportParams t) {
    NfsTestbed rig(deployment(std::move(t)));
    SimDuration elapsed = 0;
    rig.run([](NfsTestbed& r, SimDuration& out_elapsed) -> Task<void> {
      auto& fs = r.client(0);
      auto f = co_await fs.create("/t");
      (void)co_await fs.write(*f, 0, Buffer::zeros(8 * kMiB));
      const SimTime t0 = r.loop().now();
      (void)co_await fs.read(*f, 0, 8 * kMiB);  // server cache is warm
      out_elapsed = r.loop().now() - t0;
    }(rig, elapsed));
    return elapsed;
  };
  const auto rdma = measure(net::ib_rdma());
  const auto ipoib = measure(net::ipoib_rc());
  const auto gige = measure(net::gige());
  EXPECT_LT(rdma, ipoib);
  EXPECT_LT(ipoib, gige);
  // GigE is bandwidth-starved by an order of magnitude.
  EXPECT_GT(gige, 5 * ipoib);
}

TEST(Nfs, BandwidthCollapsesPastServerMemory) {
  // The Fig 1 mechanism in miniature: re-reading a working set that fits the
  // page cache is fast; one that exceeds it keeps missing to disk.
  auto measure = [](std::uint64_t file_bytes) {
    NfsServerParams sp;
    sp.page_cache_bytes = 64 * kMiB;
    NfsTestbed rig(deployment(net::ipoib_rc(), sp));
    SimDuration elapsed = 0;
    rig.run([](NfsTestbed& r, SimDuration& out_elapsed,
             std::uint64_t n_file_bytes) -> Task<void> {
      auto& fs = r.client(0);
      auto f = co_await fs.create("/ws");
      for (std::uint64_t off = 0; off < n_file_bytes; off += 4 * kMiB) {
        (void)co_await fs.write(*f, off, Buffer::zeros(4 * kMiB));
      }
      // Two sequential re-read passes (IOzone re-read).
      const SimTime t0 = r.loop().now();
      for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t off = 0; off < n_file_bytes; off += 4 * kMiB) {
          (void)co_await fs.read(*f, off, 4 * kMiB);
        }
      }
      out_elapsed = r.loop().now() - t0;
    }(rig, elapsed, file_bytes));
    // MB/s over the two passes.
    return 2.0 * to_mib(file_bytes) / to_seconds(elapsed);
  };
  const double fits = measure(32 * kMiB);    // inside the 64 MiB cache
  const double spills = measure(256 * kMiB);  // 4x the cache
  EXPECT_GT(fits, 2.0 * spills);
}

TEST(Nfs, EofShortRead) {
  NfsTestbed rig(deployment(net::ipoib_rc()));
  rig.run([](NfsTestbed& r) -> Task<void> {
    auto& fs = r.client(0);
    auto f = co_await fs.create("/short");
    (void)co_await fs.write(*f, 0, to_buffer("abc"));
    auto back = co_await fs.read(*f, 1, 1 * kMiB);
    EXPECT_TRUE(back.has_value());
    if (back) { EXPECT_EQ(to_string(*back), "bc"); }
  }(rig));
}

TEST(Nfs, TruncateAndRename) {
  NfsTestbed rig(deployment(net::ipoib_rc()));
  rig.run([](NfsTestbed& r) -> Task<void> {
    auto& fs = r.client(0);
    auto f = co_await fs.create("/a");
    (void)co_await fs.write(*f, 0, to_buffer("twelve bytes"));
    EXPECT_TRUE((co_await fs.truncate("/a", 6)).has_value());
    auto cut = co_await fs.read(*f, 0, 100);
    EXPECT_TRUE(cut.has_value());
    if (cut) { EXPECT_EQ(to_string(*cut), "twelve"); }
    EXPECT_TRUE((co_await fs.rename("/a", "/b")).has_value());
    EXPECT_EQ((co_await fs.stat("/a")).error(), Errc::kNoEnt);
    auto moved = co_await fs.read(*f, 0, 100);  // handle follows
    EXPECT_TRUE(moved.has_value());
    if (moved) { EXPECT_EQ(to_string(*moved), "twelve"); }
    EXPECT_EQ((co_await fs.rename("/nope", "/x")).error(), Errc::kNoEnt);
  }(rig));
}

TEST(Nfs, BadFdRejectedLocally) {
  NfsTestbed rig(deployment(net::ipoib_rc()));
  rig.run([](NfsTestbed& r) -> Task<void> {
    auto res = co_await r.client(0).read(fsapi::OpenFile{777}, 0, 1);
    EXPECT_EQ(res.error(), Errc::kBadF);
  }(rig));
}

}  // namespace
}  // namespace imca::nfs
