// Failure-injection tests for the IMCa stack (paper §4.4: "failures in
// MCDs must not impact correctness").
//
// Strategy: kill cache daemons at the nastiest moments — while a client
// read-repair is in flight, while SMCache's threaded worker holds a queued
// publish, between a write and its read-back — and assert that (a) every
// read still returns exactly what was written and (b) the fault/degradation
// counters account for what happened. The randomized end-to-end version of
// the same claim lives in the workload harness (tests/harness/); this file
// pins down the individual mechanisms deterministically.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/testbed.h"
#include "common/units.h"
#include "harness/workload_harness.h"

namespace imca {
namespace {

using cluster::GlusterTestbed;
using cluster::GlusterTestbedConfig;
using sim::Task;

core::ImcaConfig failover_imca() {
  core::ImcaConfig cfg;
  cfg.mcd_op_timeout = 2 * kMilli;
  cfg.mcd_retry_dead_interval = 10 * kMilli;
  return cfg;
}

Buffer pattern(std::size_t n, unsigned salt) {
  std::vector<std::byte> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::byte>((i * 31 + salt) & 0xFF);
  }
  return Buffer::take(std::move(p));
}

// Crash (and restart) each daemon in turn under the randomized invariant
// harness: whatever phase of the IMCa protocol the crash lands in, reads
// must keep matching the oracle.
TEST(ImcaFault, KillEachMcdMidWorkload) {
  for (std::size_t victim = 0; victim < 3; ++victim) {
    harness::ReplayConfig cfg;
    cfg.testbed.n_mcds = 3;
    cfg.testbed.imca = failover_imca();
    cfg.testbed.faults.seed = 900 + victim;
    cfg.testbed.faults.crashes.push_back({victim, 2 * kMilli, 20 * kMilli});

    const auto res = harness::run_seeded(101 + victim, 150, cfg);
    EXPECT_TRUE(res.ok) << "victim mcd" << victim << " op " << res.failed_op
                        << ": " << res.detail;
    EXPECT_GT(res.reads_checked, 0u);
    // The writer must never have abandoned a purge uncleanly.
    EXPECT_EQ(res.sm.purge_drops, 0u);
  }
}

// A daemon dies after a miss-path read fetched its blocks from the server
// but before the fire-and-forget repair adds run: every repair must be
// dropped (counted), none may hang, and the cache simply stays cold.
TEST(ImcaFault, CrashWhileReadRepairInFlight) {
  GlusterTestbedConfig tc;
  tc.n_mcds = 1;
  tc.smcache = false;  // nothing repopulates the MCD except client repair
  tc.imca = failover_imca();
  GlusterTestbed bed(std::move(tc));

  bed.run([](GlusterTestbed& b) -> Task<void> {
    auto f = co_await b.client(0).create("/rr");
    EXPECT_TRUE(f.has_value());
    if (!f) co_return;
    const auto payload = pattern(4 * kKiB, 1);
    (void)co_await b.client(0).write(*f, 0, payload);

    // MCDs are empty (no SMCache): this read misses both blocks, forwards
    // to the server, and spawns two repair adds.
    auto r = co_await b.client(0).read(*f, 0, 4 * kKiB);
    EXPECT_TRUE(r.has_value());
    if (r) { EXPECT_EQ(*r, payload); }

    // Kill the daemon before the spawned repairs get to run.
    b.mcd(0).stop();
  }(bed));

  const auto& fs = bed.cmcache(0).fault_stats();
  EXPECT_EQ(bed.cmcache(0).stats().blocks_repaired, 0u);
  EXPECT_EQ(fs.repairs_dropped, 2u);
  EXPECT_EQ(fs.repairs_skipped_stale, 0u);
}

// A write races an in-flight miss-path read: the read captured the path's
// write epoch before probing the daemons, then suspended on the wire; the
// write lands while it is parked. Landing the read's repairs now would
// cache pre-write bytes (there is no SMCache here to purge them — exactly
// the window the per-path epoch exists for). Both must be withheld.
TEST(ImcaFault, WriteWithholdsStaleReadRepair) {
  GlusterTestbedConfig tc;
  tc.n_mcds = 1;
  tc.smcache = false;
  tc.imca = failover_imca();
  GlusterTestbed bed(std::move(tc));

  bed.run([](GlusterTestbed& b) -> Task<void> {
    auto f = co_await b.client(0).create("/stale");
    EXPECT_TRUE(f.has_value());
    if (!f) co_return;
    const auto old_bytes = pattern(4 * kKiB, 2);
    (void)co_await b.client(0).write(*f, 0, old_bytes);

    // Detached miss-path read: it synchronously captures the write epoch,
    // then suspends on the daemon probe / server fetch.
    bool read_done = false;
    b.loop().spawn([](GlusterTestbed& bb, fsapi::OpenFile ff,
                      bool& done) -> Task<void> {
      auto r = co_await bb.client(0).read(ff, 0, 4 * kKiB);
      EXPECT_TRUE(r.has_value());  // bytes are old, new, or mixed — all fine
      done = true;
    }(b, *f, read_done));

    // Overwrite while the read is on the wire (1 us << any RPC round trip).
    // The epoch bump happens before the write is even forwarded, so every
    // repair the parked read will spawn is already stale.
    co_await b.loop().sleep(1 * kMicro);
    const auto new_bytes = pattern(4 * kKiB, 3);
    (void)co_await b.client(0).write(*f, 0, new_bytes);
    while (!read_done) co_await b.loop().sleep(10 * kMicro);

    // If a stale repair had landed, this read would serve pre-write bytes
    // from the cache (nothing ever purges it in this deployment).
    auto r2 = co_await b.client(0).read(*f, 0, 4 * kKiB);
    EXPECT_TRUE(r2.has_value());
    if (r2) { EXPECT_EQ(*r2, new_bytes); }
  }(bed));

  const auto& fs = bed.cmcache(0).fault_stats();
  EXPECT_EQ(fs.repairs_skipped_stale, 2u);
  EXPECT_EQ(fs.repairs_dropped, 0u);
  // blocks_repaired is 2, not 0: the final verification read legitimately
  // re-warmed the cache with the post-write bytes.
  EXPECT_EQ(bed.cmcache(0).stats().blocks_repaired, 2u);
}

// The whole cache bank dies while SMCache's threaded worker still holds the
// write's queued read-back + publish job. The publishes are dropped (copy
// lost, not truth), the purge ledger stays clean, and the read degrades to
// the server with the correct bytes.
TEST(ImcaFault, CrashDuringThreadedSmcachePublish) {
  GlusterTestbedConfig tc;
  tc.n_mcds = 2;
  tc.imca = failover_imca();
  tc.imca.threaded_updates = true;
  GlusterTestbed bed(std::move(tc));

  bed.run([](GlusterTestbed& b) -> Task<void> {
    auto f = co_await b.client(0).create("/pub");
    EXPECT_TRUE(f.has_value());
    if (!f) co_return;
    const auto payload = pattern(4 * kKiB, 4);
    auto w = co_await b.client(0).write(*f, 0, payload);
    EXPECT_TRUE(w.has_value());  // durable at the server already

    // The publish job is on the worker queue; kill the bank before it runs.
    b.mcd(0).stop();
    b.mcd(1).stop();
    co_await b.smcache()->quiesce();

    auto r = co_await b.client(0).read(*f, 0, 4 * kKiB);
    EXPECT_TRUE(r.has_value());
    if (r) { EXPECT_EQ(*r, payload); }
  }(bed));

  EXPECT_GE(bed.smcache()->stats().publish_drops, 1u);
  EXPECT_EQ(bed.smcache()->stats().purge_drops, 0u);
  EXPECT_GE(bed.cmcache(0).fault_stats().degraded_reads, 1u);
}

// Write with the bank up, then crash ALL daemons: the inline write
// read-back republished the blocks, but every subsequent read must still
// come back correct — degraded to the server path, and counted as such.
TEST(ImcaFault, AllMcdsDownReadsDegradeToServer) {
  GlusterTestbedConfig tc;
  tc.n_mcds = 3;
  tc.imca = failover_imca();
  GlusterTestbed bed(std::move(tc));

  bed.run([](GlusterTestbed& b) -> Task<void> {
    auto f = co_await b.client(0).create("/deg");
    EXPECT_TRUE(f.has_value());
    if (!f) co_return;
    const auto payload = pattern(8 * kKiB, 5);
    (void)co_await b.client(0).write(*f, 0, payload);

    for (std::size_t i = 0; i < b.n_mcds(); ++i) b.mcd(i).stop();

    for (std::uint64_t off = 0; off < 8 * kKiB; off += 2 * kKiB) {
      auto r = co_await b.client(0).read(*f, off, 2 * kKiB);
      EXPECT_TRUE(r.has_value());
      if (!r) co_return;
      EXPECT_EQ(*r, payload.slice(off, 2 * kKiB));
    }
  }(bed));

  const auto& fs = bed.cmcache(0).fault_stats();
  const auto& cs = bed.cmcache(0).stats();
  EXPECT_GE(fs.degraded_reads, 1u);
  EXPECT_GT(bed.cmcache(0).mcds().stats().dead_server_ops, 0u);
  // Every degraded read leaned on the server, so the count can never exceed
  // the server-path read counters.
  EXPECT_LE(fs.degraded_reads, cs.reads_forwarded + cs.reads_partial);
}

// Accounting under a crash-all plan driven through the harness: the run
// passes, demonstrably degraded (not vacuous), and the degradation counters
// stay consistent with the read-path counters.
TEST(ImcaFault, CountersAccountForDegradedOps) {
  harness::ReplayConfig cfg;
  net::FaultPlan& faults = cfg.testbed.faults;
  cfg.testbed.n_mcds = 3;
  cfg.testbed.imca = failover_imca();
  faults.seed = 42;
  faults.crashes.push_back({0, 2 * kMilli, std::nullopt});
  faults.crashes.push_back({1, 2 * kMilli + kMilli / 2, std::nullopt});
  faults.crashes.push_back({2, 3 * kMilli, std::nullopt});

  const auto res = harness::run_seeded(7, 160, cfg);
  EXPECT_TRUE(res.ok) << "op " << res.failed_op << ": " << res.detail;
  EXPECT_GT(res.cm_faults.degraded_reads, 0u);
  EXPECT_LE(res.cm_faults.degraded_reads,
            res.cm.reads_forwarded + res.cm.reads_partial);
  EXPECT_GT(res.cm_client.fault_signals(), 0u);
  EXPECT_EQ(res.sm.purge_drops, 0u);
}

// No-fault harness sanity: with an inactive fault plan the degradation
// counters must all stay zero (no false positives from the detector).
TEST(ImcaFault, NoFaultPlanLeavesCountersZero) {
  harness::ReplayConfig cfg;
  cfg.testbed.n_mcds = 3;
  cfg.testbed.imca = failover_imca();

  const auto res = harness::run_seeded(11, 120, cfg);
  EXPECT_TRUE(res.ok) << "op " << res.failed_op << ": " << res.detail;
  EXPECT_GT(res.reads_checked, 0u);
  EXPECT_EQ(res.cm_faults.degraded_reads, 0u);
  EXPECT_EQ(res.cm_faults.degraded_stats, 0u);
  EXPECT_EQ(res.cm_faults.repairs_dropped, 0u);
  EXPECT_EQ(res.cm_client.timeouts, 0u);
  EXPECT_EQ(res.sm_client.timeouts, 0u);
  EXPECT_EQ(res.sm.publish_drops, 0u);
  EXPECT_EQ(res.sm.purge_drops, 0u);
}

// Replica-brick regression: publish_write_covered runs as several MCD
// round-trips — full-block sets, then edge-block deletes, then the stat
// delete. A brick crash landing BETWEEN the edge delete and the stat delete
// leaves a half-invalidated bank (edge block gone, stale stat item still
// up); a crash one round-trip earlier leaves a stale edge block with a
// stale stat vouching for it. Neither may let a later read resurrect
// pre-write bytes. The DES is deterministic, so sweeping the crash instant
// in 2 µs steps across the write+publish window pins every interleaving,
// including exactly that one.
TEST(ImcaFault, BrickCrashInsideCoveredPublishWindow) {
  constexpr std::uint64_t bs = 2 * kKiB;  // ImcaConfig::block_size default

  std::vector<std::byte> old_bytes(2 * bs);
  std::vector<std::byte> expected(2 * bs);
  for (std::size_t i = 0; i < 2 * bs; ++i) {
    old_bytes[i] = static_cast<std::byte>((i * 31 + 6) & 0xFF);
    expected[i] = old_bytes[i];
  }
  for (std::size_t i = 0; i < bs; ++i) {
    // The overwrite: one full payload block's worth, block-straddling so
    // both its head and tail land as partially-covered edge blocks.
    expected[bs / 2 + i] = static_cast<std::byte>((i * 31 + 7) & 0xFF);
  }

  std::uint64_t disturbed = 0;  // sweep steps that interrupted the fop
  for (std::uint64_t dt = 40; dt <= 340; dt += 10) {
    GlusterTestbedConfig tc;
    tc.n_mcds = 2;
    tc.n_replicas = 2;  // replica bricks -> the covered-publish protocol
    tc.imca = failover_imca();
    // Ride out the crash window: the protocol layer retries the in-flight
    // write past the restart, and the replay window dedups the re-send.
    tc.client.protocol.op_deadline = 400 * kMilli;
    tc.client.protocol.attempt_timeout = 40 * kMilli;
    tc.client.protocol.backoff_base = 1 * kMilli;
    tc.client.protocol.backoff_cap = 8 * kMilli;
    tc.client.protocol.eject_after = 3;
    tc.client.protocol.probe_interval = 5 * kMilli;
    GlusterTestbed bed(std::move(tc));

    bed.run([](GlusterTestbed& b, std::uint64_t at,
               const std::vector<std::byte>* oldb,
               const std::vector<std::byte>* want) -> Task<void> {
      auto f = co_await b.client(0).create("/edge");
      EXPECT_TRUE(f.has_value());
      if (!f) co_return;
      Buffer old_buf = Buffer::take(std::vector<std::byte>(*oldb));
      (void)co_await b.client(0).write(*f, 0, old_buf);
      // Warm the bank: blocks via read-repair, the stat item via stat.
      auto warm = co_await b.client(0).read(*f, 0, 2 * bs);
      EXPECT_TRUE(warm.has_value());
      (void)co_await b.client(0).stat("/edge");

      // Both replicas die at t0+dt — in lockstep, since their publish
      // round-trips interleave on the same clock — so no sibling's full
      // publish can close the half-invalidated window for us.
      const SimTime t0 = b.loop().now();
      b.brick(0).schedule_crash(t0 + at * kMicro, t0 + 3 * kMilli);
      b.brick(1).schedule_crash(t0 + at * kMicro, t0 + 3 * kMilli);

      std::vector<std::byte> np(want->begin() + bs / 2,
                                want->begin() + bs / 2 + bs);
      auto w = co_await b.client(0).write(*f, bs / 2, Buffer::take(std::move(np)));
      // A full-outage write may fail per-op — the designed surface for
      // replica-set unavailability is a quorum error, not a hang — so the
      // application retries once the replicas return. The half-finished
      // invalidation from the crashed attempt sits in the bank until a
      // retry's publish cleans it; that is the state under test.
      for (int tries = 0; !w && tries < 50; ++tries) {
        co_await b.loop().sleep(5 * kMilli);
        std::vector<std::byte> again(want->begin() + bs / 2,
                                     want->begin() + bs / 2 + bs);
        w = co_await b.client(0).write(*f, bs / 2,
                                       Buffer::take(std::move(again)));
      }
      EXPECT_TRUE(w.has_value()) << "dt=" << at;

      // The later reads: whatever the crash interrupted, nobody may serve
      // pre-write bytes for the overwritten range, and the stat item may
      // not resurrect a stale view.
      co_await b.quiesce_smcaches();
      auto r = co_await b.client(0).read(*f, 0, 2 * bs);
      EXPECT_TRUE(r.has_value()) << "dt=" << at;
      if (r) {
        EXPECT_EQ(*r, Buffer::take(std::vector<std::byte>(*want)))
            << "dt=" << at;
      }
      auto st = co_await b.client(0).stat("/edge");
      EXPECT_TRUE(st.has_value()) << "dt=" << at;
      if (st) { EXPECT_EQ(st->size, 2 * bs) << "dt=" << at; }
    }(bed, dt, &old_bytes, &expected));

    EXPECT_EQ(bed.server_totals().duplicate_applies, 0u) << "dt=" << dt;
    disturbed += bed.server_totals().replies_lost_in_crash;
    disturbed += bed.smcache()->stats().publishes_suppressed;
  }
  // Non-vacuity: if no step ever caught the write/publish in flight, the
  // sweep has drifted off the window and stopped testing anything.
  EXPECT_GT(disturbed, 0u);
}

}  // namespace
}  // namespace imca
