// Self-heal convergence property (DESIGN.md §5i): for ANY randomized
// workload trace and ANY staggered per-brick crash schedule on a 1x3
// replica group, the invariant harness must end with every replica of every
// live file byte-identical to the oracle, deleted files gone from every
// replica, no mutation applied twice on any brick, and no quorum failure
// (the schedules keep a majority up at every instant). The harness's
// grid-mode epilogue performs the per-replica byte checks inside replay();
// on a failure run_seeded() ddmin-shrinks the trace and prints a
// reproducible one-liner.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/units.h"
#include "harness/workload_harness.h"

namespace imca {
namespace {

// splitmix64: the schedule generator's only entropy source, so a seed fully
// determines the crash plan (same determinism contract as the matrices).
std::uint64_t mix(std::uint64_t& s) {
  std::uint64_t x = (s += 0x9e3779b97f4a7c15ull);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// One randomized rolling round of single-brick crash windows, staggered so
// at most one of the three replicas is ever down: quorum (2) holds
// throughout, so every mutation must commit and every window's dirt must
// heal away. Window and deadline sizing below are load-bearing:
//   * every window exceeds the 200 ms op deadline, so the leg to the dead
//     brick FAILS (and dirties the copy) instead of riding the whole window
//     out on refusal retries and acking unanimously (which would leave the
//     heal machinery nothing to do — a vacuous pass);
//   * the deadline itself leaves headroom for a mutation that lands behind
//     an in-flight self-heal of the same path — the heal holds the path
//     lock across several cold disk accesses, and the blocked fop's TTL
//     keeps draining while it waits.
void add_crash_schedule(std::uint64_t seed, net::FaultPlan* plan) {
  std::uint64_t s = seed * 0x2545f4914f6cdd1dull + 1;
  SimTime t = (5 + mix(s) % 20) * kMilli;
  // A seed-dependent brick order.
  std::size_t order[3] = {0, 1, 2};
  std::swap(order[0], order[mix(s) % 3]);
  std::swap(order[1], order[1 + mix(s) % 2]);
  for (std::size_t i = 0; i < 3; ++i) {
    const SimDuration window = (210 + mix(s) % 30) * kMilli;
    plan->server_crashes.push_back({t, {t + window}, order[i]});
    t += window + (10 + mix(s) % 10) * kMilli;
  }
}

harness::ReplayConfig grid_config(std::uint64_t seed) {
  harness::ReplayConfig cfg;
  cluster::GlusterTestbedConfig& tc = cfg.testbed;
  tc.n_mcds = 3;
  tc.smcache = true;
  tc.n_bricks = 1;
  tc.n_replicas = 3;
  tc.imca.mcd_op_timeout = 2 * kMilli;
  tc.imca.mcd_retry_dead_interval = 10 * kMilli;
  // Same stance as the brick fault matrix: the deadline is shorter than
  // every crash window, so the leg to a dead replica genuinely fails, the
  // write commits 2-of-3, and self-heal gets real dirt to copy back — but
  // wide enough to also absorb a wait behind a same-path heal.
  tc.client.op_deadline = 200 * kMilli;
  tc.client.attempt_timeout = 20 * kMilli;
  tc.client.backoff_base = 1 * kMilli;
  tc.client.backoff_cap = 4 * kMilli;
  tc.client.eject_after = 3;
  tc.client.probe_interval = 5 * kMilli;
  tc.faults.seed = seed;
  add_crash_schedule(seed, &tc.faults);
  return cfg;
}

TEST(HealPropertyTest, RandomTracesConvergeUnderRandomCrashSchedules) {
  constexpr std::uint64_t kSeeds[] = {21, 22, 23, 24, 25, 26};
  constexpr std::size_t kOps = 200;
  std::uint64_t total_heals = 0;
  std::uint64_t total_switches = 0;
  for (const std::uint64_t seed : kSeeds) {
    const auto res = harness::run_seeded(seed, kOps, grid_config(seed));
    EXPECT_TRUE(res.ok) << "seed " << seed << ": " << res.detail;
    EXPECT_EQ(res.server.duplicate_applies, 0u) << "seed " << seed;
    EXPECT_EQ(res.replicate.quorum_short_writes, 0u)
        << "seed " << seed
        << ": a mutation failed quorum although a majority stayed up";
    EXPECT_GT(res.server.crashes, 0u) << "seed " << seed;
    EXPECT_GT(res.server.restarts, 0u) << "seed " << seed;
    total_heals += res.replicate.heals_completed;
    total_switches += res.replicate.read_child_switches;
  }
  // Across the seed set the machinery under test must demonstrably run: if
  // no heal ever completed or the read child never failed over, the crash
  // schedules were vacuous and the property holds trivially.
  EXPECT_GT(total_heals, 0u);
  EXPECT_GT(total_switches, 0u);
}

}  // namespace
}  // namespace imca
