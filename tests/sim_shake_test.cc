// Schedule-shake validator pins (DESIGN.md §5k). EventLoop's tie_shake
// seed deterministically permutes equal-timestamp FIFO resume order — the
// executable half of the imca-lint suspension-atomicity checks: every
// static finding about state assumed stable across a suspension gets an
// interleaving search that can actually reorder the racing resumes.
//
// Pinned here:
//   * tie_shake 0 is byte-identical to today's FIFO order (trace
//     equality, tie_shaken == 0) — shake off means bit-for-bit off.
//   * A shaken run permutes ONLY ties: the timestamp sequence is
//     unchanged and each timestamp resumes the same event set, but the
//     within-timestamp order differs (tie_shaken > 0, anti-vacuity).
//   * Wheel and legacy heap produce identical traces under the same shake
//     seed — the shaken schedule is still a deterministic contract, not an
//     implementation accident.
//   * Same seed reproduces, different seeds explore different orders.
//   * A SimMutex-guarded read-modify-write stays exact under shake: the
//     schedules shake explores are legal, so guarded code must not care.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/event_loop.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace imca::sim {
namespace {

using Trace = std::vector<std::pair<SimTime, std::uint64_t>>;

// Tie-heavy workload: every client sleeps the same fixed tick, so all of
// them collide on every timestamp and each resume is a FIFO tie the shake
// can permute.
Task<void> lockstep_client(EventLoop& loop, std::size_t iters) {
  for (std::size_t i = 0; i < iters; ++i) {
    co_await loop.sleep(10);
  }
}

Trace run_lockstep(QueueImpl impl, std::uint64_t shake, std::size_t n_clients,
                   std::size_t iters, EventLoopStats* stats = nullptr) {
  EventLoop loop(impl, shake);
  Trace trace;
  loop.set_trace(&trace);
  for (std::size_t id = 0; id < n_clients; ++id) {
    loop.spawn(lockstep_client(loop, iters));
  }
  loop.run();
  if (stats != nullptr) *stats = loop.stats();
  return trace;
}

// Group a trace into per-timestamp resume sets (order within a timestamp
// deliberately dropped): shake may permute inside a group, never across.
std::map<SimTime, std::multiset<std::uint64_t>> by_time(const Trace& t) {
  std::map<SimTime, std::multiset<std::uint64_t>> out;
  for (const auto& [at, seq] : t) out[at].insert(seq);
  return out;
}

TEST(ScheduleShake, ZeroSeedIsByteIdenticalToFifo) {
  EventLoopStats plain_stats, zero_stats;
  const Trace plain =
      run_lockstep(QueueImpl::kTimerWheel, 0, 32, 50, &plain_stats);
  const Trace zero =
      run_lockstep(QueueImpl::kTimerWheel, 0, 32, 50, &zero_stats);
  ASSERT_EQ(plain, zero);
  EXPECT_EQ(plain_stats.tie_shaken, 0u);
  EXPECT_EQ(zero_stats.tie_shaken, 0u);
}

TEST(ScheduleShake, ShakenRunPermutesTiesOnly) {
  const Trace fifo = run_lockstep(QueueImpl::kTimerWheel, 0, 32, 50);
  EventLoopStats shaken_stats;
  const Trace shaken =
      run_lockstep(QueueImpl::kTimerWheel, 7, 32, 50, &shaken_stats);

  ASSERT_EQ(fifo.size(), shaken.size());
  // Same timestamps in the same order; same event multiset per timestamp.
  EXPECT_EQ(by_time(fifo), by_time(shaken));
  // ... but not the same within-timestamp order, and the kernel counted
  // the reorders (anti-vacuity: the shake actually did something).
  EXPECT_NE(fifo, shaken);
  EXPECT_GT(shaken_stats.tie_shaken, 0u);
}

TEST(ScheduleShake, WheelAndLegacyHeapAgreeUnderShake) {
  for (const std::uint64_t seed : {1ull, 7ull, 1234567ull}) {
    const Trace wheel = run_lockstep(QueueImpl::kTimerWheel, seed, 24, 40);
    const Trace heap = run_lockstep(QueueImpl::kLegacyHeap, seed, 24, 40);
    ASSERT_EQ(wheel, heap) << "impls diverged under shake seed " << seed;
  }
}

TEST(ScheduleShake, SameSeedReproducesDifferentSeedsDiffer) {
  const Trace a1 = run_lockstep(QueueImpl::kTimerWheel, 9, 32, 50);
  const Trace a2 = run_lockstep(QueueImpl::kTimerWheel, 9, 32, 50);
  const Trace b = run_lockstep(QueueImpl::kTimerWheel, 10, 32, 50);
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(by_time(a1), by_time(b));  // still the same legal schedule space
}

// Oracle correctness under shake: a guarded read-modify-write that parks
// inside its critical section (forcing other workers to pile up on the
// mutex at the same timestamps) must still count exactly. This is the
// dynamic twin of IMCA-LOCK-AWAIT's good pattern: protected state may not
// care which legal interleaving runs.
Task<void> guarded_rmw(EventLoop& loop, SimMutex& mu, std::uint64_t& total,
                       std::size_t iters) {
  for (std::size_t i = 0; i < iters; ++i) {
    auto guard = co_await ScopedLock::acquire(mu);
    const std::uint64_t snapshot = total;
    co_await loop.sleep(1);  // suspension inside the critical section
    total = snapshot + 1;
  }
}

TEST(ScheduleShake, GuardedRmwStaysExactUnderShake) {
  for (const std::uint64_t seed : {0ull, 3ull, 99ull}) {
    EventLoop loop(QueueImpl::kTimerWheel, seed);
    SimMutex mu(loop);
    std::uint64_t total = 0;
    constexpr std::size_t kWorkers = 16;
    constexpr std::size_t kIters = 25;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      loop.spawn(guarded_rmw(loop, mu, total, kIters));
    }
    loop.run();
    ASSERT_EQ(total, kWorkers * kIters) << "lost updates at shake " << seed;
  }
}

}  // namespace
}  // namespace imca::sim
