// Integration tests: testbed builders plus the three workload generators,
// exercising the same code paths the figure benches use — including the
// headline directional claims (IMCa stat scaling, cache-hit read latency).
#include <gtest/gtest.h>

#include <latch>
#include <thread>

#include "cluster/testbed.h"
#include "common/buffer.h"
#include "workload/iozone.h"
#include "workload/latency_bench.h"
#include "workload/stat_bench.h"

namespace imca::cluster {
namespace {

using workload::IozoneOptions;
using workload::LatencyOptions;
using workload::StatOptions;

TEST(Testbed, NoCacheConfigHasNoImca) {
  GlusterTestbedConfig cfg;
  cfg.n_clients = 2;
  cfg.n_mcds = 0;
  GlusterTestbed tb(cfg);
  EXPECT_FALSE(tb.imca_enabled());
  EXPECT_EQ(tb.smcache(), nullptr);
}

TEST(Testbed, ImcaConfigWiresTranslators) {
  GlusterTestbedConfig cfg;
  cfg.n_clients = 3;
  cfg.n_mcds = 2;
  GlusterTestbed tb(cfg);
  EXPECT_TRUE(tb.imca_enabled());
  EXPECT_NE(tb.smcache(), nullptr);
  EXPECT_EQ(tb.n_mcds(), 2u);
  // Smoke: a file written by one client is readable by another via the bank.
  tb.run([](GlusterTestbed& t) -> sim::Task<void> {
    auto f = co_await t.client(0).create("/x");
    (void)co_await t.client(0).write(*f, 0, to_buffer("cross-client"));
    auto f2 = co_await t.client(1).open("/x");
    auto r = co_await t.client(1).read(*f2, 0, 12);
    EXPECT_TRUE(r.has_value());
    if (r) { EXPECT_EQ(to_string(*r), "cross-client"); }
  }(tb));
}

// The DES kernel's shake seed lives in the config and reaches the testbed's
// own loop (the fault matrices' --shake flag rides on this).
TEST(Testbed, ShakeConfigReachesTheLoop) {
  GlusterTestbedConfig cfg;
  cfg.tie_shake = 21;
  GlusterTestbed tb(cfg);
  EXPECT_EQ(tb.loop().tie_shake(), 21u);
}

TEST(Latency, SmallReadsFasterWithImca) {
  auto read_1b = [](std::size_t n_mcds) {
    GlusterTestbedConfig cfg;
    cfg.n_clients = 1;
    cfg.n_mcds = n_mcds;
    GlusterTestbed tb(cfg);
    LatencyOptions opt;
    opt.max_record = 4 * kKiB;
    opt.records_per_size = 64;
    const auto series =
        workload::run_latency_benchmark(tb.loop(), tb.clients(), opt);
    return series.read_ns.at(1);
  };
  const double nocache = read_1b(0);
  const double imca = read_1b(1);
  EXPECT_LT(imca, nocache);  // Fig 6(a)'s direction
  EXPECT_GT(imca, 0.0);
}

TEST(Latency, SyncImcaWritesSlowerThanNoCache) {
  auto write_2k = [](std::size_t n_mcds, bool threaded) {
    GlusterTestbedConfig cfg;
    cfg.n_clients = 1;
    cfg.n_mcds = n_mcds;
    cfg.imca.threaded_updates = threaded;
    GlusterTestbed tb(cfg);
    LatencyOptions opt;
    opt.max_record = 2 * kKiB;
    opt.records_per_size = 64;
    const auto series =
        workload::run_latency_benchmark(tb.loop(), tb.clients(), opt);
    return series.write_ns.at(2 * kKiB);
  };
  const double nocache = write_2k(0, false);
  const double imca_sync = write_2k(1, false);
  const double imca_threaded = write_2k(1, true);
  // Fig 6(c): sync IMCa writes pay the read-back; the worker removes most
  // of that extra cost.
  EXPECT_GT(imca_sync, nocache);
  EXPECT_LT(imca_threaded, imca_sync);
}

TEST(Latency, SharedFileModeOnlyRootWrites) {
  GlusterTestbedConfig cfg;
  cfg.n_clients = 4;
  cfg.n_mcds = 1;
  GlusterTestbed tb(cfg);
  LatencyOptions opt;
  opt.max_record = 1 * kKiB;
  opt.records_per_size = 32;
  opt.shared_file = true;
  const auto series =
      workload::run_latency_benchmark(tb.loop(), tb.clients(), opt);
  EXPECT_FALSE(series.read_ns.empty());
  // Only one file exists on the server.
  EXPECT_EQ(tb.server().object_store().file_count(), 1u);
}

TEST(Stat, ImcaCutsStatTimeWithManyClients) {
  auto run = [](std::size_t n_mcds) {
    GlusterTestbedConfig cfg;
    cfg.n_clients = 8;
    cfg.n_mcds = n_mcds;
    GlusterTestbed tb(cfg);
    StatOptions opt;
    opt.n_files = 400;
    return workload::run_stat_benchmark(tb.loop(), tb.clients(), opt)
        .max_node_seconds;
  };
  const double nocache = run(0);
  const double with_cache = run(2);
  EXPECT_LT(with_cache, nocache);  // Fig 5's direction
}

TEST(Stat, ReportsAllStatsIssued) {
  GlusterTestbedConfig cfg;
  cfg.n_clients = 3;
  cfg.n_mcds = 1;
  GlusterTestbed tb(cfg);
  StatOptions opt;
  opt.n_files = 100;
  const auto r = workload::run_stat_benchmark(tb.loop(), tb.clients(), opt);
  EXPECT_EQ(r.total_stats, 300u);
  EXPECT_GT(r.max_node_seconds, 0.0);
}

TEST(Iozone, RunsOnAllThreeSystems) {
  IozoneOptions opt;
  opt.file_bytes = 4 * kMiB;
  opt.request_size = 256 * kKiB;

  GlusterTestbedConfig gcfg;
  gcfg.n_clients = 2;
  GlusterTestbed gtb(gcfg);
  const auto g = workload::run_iozone(gtb.loop(), gtb.clients(), opt);
  EXPECT_GT(g.aggregate_read_mbps, 0.0);
  EXPECT_EQ(g.bytes_read, 2 * opt.file_bytes);

  LustreTestbedConfig lcfg;
  lcfg.n_clients = 2;
  lcfg.n_ds = 2;
  LustreTestbed ltb(lcfg);
  const auto l = workload::run_iozone(ltb.loop(), ltb.clients(), opt);
  EXPECT_GT(l.aggregate_read_mbps, 0.0);

  NfsTestbedConfig ncfg;
  ncfg.n_clients = 2;
  NfsTestbed ntb(ncfg);
  const auto n = workload::run_iozone(ntb.loop(), ntb.clients(), opt);
  EXPECT_GT(n.aggregate_read_mbps, 0.0);
}

TEST(Iozone, ModuloHashSpreadsBlocksOverMcds) {
  GlusterTestbedConfig cfg;
  cfg.n_clients = 1;
  cfg.n_mcds = 4;
  cfg.imca.hash = core::HashScheme::kModulo;
  GlusterTestbed tb(cfg);
  IozoneOptions opt;
  opt.file_bytes = 2 * kMiB;
  opt.request_size = 64 * kKiB;
  (void)workload::run_iozone(tb.loop(), tb.clients(), opt);
  // Every daemon holds a share of the blocks (round-robin placement).
  for (std::size_t i = 0; i < tb.n_mcds(); ++i) {
    EXPECT_GT(tb.mcd(i).cache().item_count(), 100u) << "mcd " << i;
  }
}

TEST(Determinism, WholeWorkloadIsReproducible) {
  auto run = [] {
    GlusterTestbedConfig cfg;
    cfg.n_clients = 4;
    cfg.n_mcds = 2;
    GlusterTestbed tb(cfg);
    LatencyOptions opt;
    opt.max_record = 2 * kKiB;
    opt.records_per_size = 32;
    const auto series =
        workload::run_latency_benchmark(tb.loop(), tb.clients(), opt);
    return std::pair{series.read_ns, tb.loop().now()};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(McdTotals, AggregateCounters) {
  GlusterTestbedConfig cfg;
  cfg.n_clients = 1;
  cfg.n_mcds = 3;
  GlusterTestbed tb(cfg);
  tb.run([](GlusterTestbed& t) -> sim::Task<void> {
    auto f = co_await t.client(0).create("/agg");
    (void)co_await t.client(0).write(*f, 0, Buffer::zeros(32 * kKiB));
    (void)co_await t.client(0).read(*f, 0, 32 * kKiB);
  }(tb));
  const auto totals = tb.mcd_totals();
  EXPECT_GT(totals.cmd_set, 0u);
  EXPECT_GT(totals.get_hits, 0u);
  EXPECT_GT(totals.curr_items, 0u);
}

// --- independent simulations ---

// One small stat run on a fresh IMCa testbed: what it measured, where its
// clock stopped and what it added to the copy ledger of its thread.
struct StatRun {
  double max_node_seconds = 0;
  SimTime end = 0;
  BufferStats ledger;
};

StatRun stat_run() {
  const BufferStats before = buffer_stats();
  GlusterTestbedConfig cfg;
  cfg.n_clients = 8;
  cfg.n_mcds = 2;
  GlusterTestbed tb(cfg);
  StatOptions opt;
  opt.n_files = 2000;
  StatRun r;
  r.max_node_seconds =
      workload::run_stat_benchmark(tb.loop(), tb.clients(), opt)
          .max_node_seconds;
  r.end = tb.loop().now();
  const BufferStats& after = buffer_stats();
  r.ledger.segments_allocated =
      after.segments_allocated - before.segments_allocated;
  r.ledger.segment_bytes = after.segment_bytes - before.segment_bytes;
  r.ledger.bytes_copied = after.bytes_copied - before.bytes_copied;
  r.ledger.gather_calls = after.gather_calls - before.gather_calls;
  r.ledger.view_slices = after.view_slices - before.view_slices;
  return r;
}

// Two testbeds on two threads at once share no state: each reproduces the
// run it makes alone on the main thread, clock and copy ledger included.
TEST(SimContext, TwoSimulationsOnTwoThreadsMatchOneAlone) {
  const StatRun alone = stat_run();
  ASSERT_GT(alone.ledger.segments_allocated, 0u);

  StatRun runs[2];
  {
    std::latch start(2);  // both simulations run at the same time
    std::jthread a([&] {
      start.arrive_and_wait();
      runs[0] = stat_run();
    });
    std::jthread b([&] {
      start.arrive_and_wait();
      runs[1] = stat_run();
    });
  }  // both joined here

  for (const StatRun& r : runs) {
    EXPECT_EQ(r.max_node_seconds, alone.max_node_seconds);
    EXPECT_EQ(r.end, alone.end);
    EXPECT_EQ(r.ledger.segments_allocated, alone.ledger.segments_allocated);
    EXPECT_EQ(r.ledger.segment_bytes, alone.ledger.segment_bytes);
    EXPECT_EQ(r.ledger.bytes_copied, alone.ledger.bytes_copied);
    EXPECT_EQ(r.ledger.gather_calls, alone.ledger.gather_calls);
    EXPECT_EQ(r.ledger.view_slices, alone.ledger.view_slices);
  }
}

}  // namespace
}  // namespace imca::cluster
