// Timer-wheel specific kernel tests (DESIGN.md §5h): the determinism pin
// (wheel and legacy-heap queues must produce identical (time, seq) resume
// traces), wheel-cascade edge cases at slot/window boundaries, the
// far-future overflow list, run_until parked before a far event (the cursor
// trap), and arena recycling across drains.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/event_loop.h"
#include "sim/task.h"

namespace imca::sim {
namespace {

using Trace = std::vector<std::pair<SimTime, std::uint64_t>>;

// Small deterministic stream, independent from the bench's generator.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed * 0x9E3779B97F4A7C15ull + 1) {}
  std::uint64_t next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545F4914F6CDD1Dull;
  }
};

// Sleeps spanning every wheel level: sub-slot ticks, exact slot-boundary
// values, level-2/3 waits and rare overflow-list excursions (> 2^32 ns).
SimDuration mixed_duration(Rng& rng) {
  const std::uint64_t r = rng.next();
  if (r % 499 == 0) return 6 * kSecond;  // beyond the 2^32 ns wheel span
  switch ((r >> 8) % 8) {
    case 0: return 1 + r % 250;
    case 1: return 256;                     // exactly one level-0 window
    case 2: return 255 + r % 3;             // straddle the level-0 boundary
    case 3: return 65536;                   // exactly one level-1 window
    case 4: return 65535 + r % 3;           // straddle the level-1 boundary
    case 5: return (SimDuration{1} << 24) + r % 3;  // level-2 boundary
    case 6: return 1 + r % 60000;
    default: return 1 + r % 5000000;        // deep level-2 waits
  }
}

Task<void> mixed_client(EventLoop& loop, std::uint64_t seed, std::size_t id,
                        std::size_t iters) {
  Rng rng(seed ^ (0xD1B54A32D192ED03ull * (id + 1)));
  for (std::size_t i = 0; i < iters; ++i) {
    co_await loop.sleep(mixed_duration(rng));
  }
}

struct RunOut {
  Trace trace;
  std::uint64_t events = 0;
  SimTime final_now = 0;
  EventLoopStats stats;
};

RunOut run_mixed(QueueImpl impl, std::size_t n_clients, std::size_t iters) {
  EventLoop loop(impl);
  RunOut out;
  loop.set_trace(&out.trace);
  for (std::size_t id = 0; id < n_clients; ++id) {
    loop.spawn(mixed_client(loop, 42, id, iters));
  }
  out.events = loop.run();
  out.final_now = loop.now();
  out.stats = loop.stats();
  return out;
}

// The determinism pin: the wheel must resume events in exactly the order
// the legacy priority queue does — same timestamps, same sequence numbers,
// element for element — on a workload that exercises every level and the
// overflow list. ISSUE acceptance asks for at least the first 10k pairs;
// we compare all of them.
TEST(TimerWheel, ResumeTraceMatchesLegacyHeap) {
  const RunOut wheel = run_mixed(QueueImpl::kTimerWheel, 200, 60);
  const RunOut legacy = run_mixed(QueueImpl::kLegacyHeap, 200, 60);

  ASSERT_GE(wheel.trace.size(), 10000u);
  ASSERT_EQ(wheel.trace.size(), legacy.trace.size());
  for (std::size_t i = 0; i < wheel.trace.size(); ++i) {
    ASSERT_EQ(wheel.trace[i], legacy.trace[i]) << "first divergence at " << i;
  }
  EXPECT_EQ(wheel.events, legacy.events);
  EXPECT_EQ(wheel.final_now, legacy.final_now);
  // The mix reaches past the wheel span, so cascades must have happened.
  EXPECT_GT(wheel.stats.cascades, 0u);
  EXPECT_EQ(wheel.stats.past_clamps, 0u);
  EXPECT_EQ(legacy.stats.cascades, 0u);  // the heap never cascades
}

Task<void> stamp_at(EventLoop& loop, SimTime at, int id,
                    std::vector<int>& order) {
  co_await loop.sleep_until(at);
  order.push_back(id);
}

// Events parked exactly on slot boundaries of every level (256^l multiples)
// must come back in timestamp order, and equal timestamps in spawn (seq)
// order — boundary values are where an off-by-one in window math would
// misfile an event one slot early or late.
TEST(TimerWheel, SlotBoundaryTimestampsResumeInOrder) {
  const SimTime k2_32 = SimTime{1} << 32;
  const std::vector<SimTime> ats = {
      255,        256,        257,         65535,       65536,
      65537,      1u << 24,   (1u << 24) + 1,           k2_32 - 1,
      k2_32,      k2_32 + 5,  3 * k2_32 + 7};
  for (const QueueImpl impl :
       {QueueImpl::kTimerWheel, QueueImpl::kLegacyHeap}) {
    EventLoop loop(impl);
    std::vector<int> order;
    // Spawn in reverse so timestamp order != spawn order globally...
    for (std::size_t i = ats.size(); i > 0; --i) {
      loop.spawn(stamp_at(loop, ats[i - 1], static_cast<int>(i - 1), order));
    }
    // ...and duplicate one boundary timestamp to pin the FIFO tie-break:
    // spawned later => resumes later among equals.
    loop.spawn(stamp_at(loop, 65536, 100, order));
    loop.run();
    ASSERT_EQ(order.size(), ats.size() + 1);
    for (std::size_t i = 0; i < ats.size(); ++i) {
      EXPECT_EQ(order[i + (i > 4 ? 1 : 0)], static_cast<int>(i))
          << "impl=" << static_cast<int>(impl) << " position " << i;
    }
    // The duplicate of ats[4]==65536 was spawned after every other event,
    // so it resumes directly after the original.
    EXPECT_EQ(order[5], 100);
    EXPECT_EQ(loop.now(), 3 * k2_32 + 7);
  }
}

// run_until parked before a far-future (overflow-list) event must leave the
// wheel able to accept and run nearer events scheduled afterwards: the
// cursor may not advance past the parked deadline just because the only
// queued event lives seconds ahead.
TEST(TimerWheel, RunUntilParkedBeforeFarEventAcceptsNearerWork) {
  EventLoop loop(QueueImpl::kTimerWheel);
  std::vector<int> order;
  loop.spawn(stamp_at(loop, 10 * kSecond, 99, order));  // overflow list

  // Park the clock at t=1000 — far earlier than the queued event.
  EXPECT_EQ(loop.run_until(1000), 1u);  // the spawn bootstrap event
  EXPECT_EQ(loop.now(), 1000u);
  EXPECT_TRUE(order.empty());

  // New work between the parked clock and the far event must run on time.
  loop.spawn(stamp_at(loop, 1500, 1, order));
  loop.spawn(stamp_at(loop, 1500, 2, order));  // same-timestamp FIFO
  EXPECT_EQ(loop.run_until(2000), 4u);  // 2 bootstraps + 2 stamps
  EXPECT_EQ(loop.now(), 2000u);
  ASSERT_EQ(order, (std::vector<int>{1, 2}));

  // Drain: the far event fires at exactly its timestamp.
  loop.run();
  ASSERT_EQ(order, (std::vector<int>{1, 2, 99}));
  EXPECT_EQ(loop.now(), 10 * kSecond);
}

// Repeated run_until slices across a cascade-heavy workload must see the
// same trace as one uninterrupted run() — deadlines may split the stream
// anywhere, including mid-window between cascades.
TEST(TimerWheel, RunUntilSlicingMatchesFullRun) {
  const RunOut full = run_mixed(QueueImpl::kTimerWheel, 50, 40);

  EventLoop loop(QueueImpl::kTimerWheel);
  Trace sliced;
  loop.set_trace(&sliced);
  for (std::size_t id = 0; id < 50; ++id) {
    loop.spawn(mixed_client(loop, 42, id, 40));
  }
  std::uint64_t events = 0;
  // Uneven slice widths, deliberately not aligned to any wheel level.
  SimTime deadline = 0;
  std::uint64_t step = 777;
  while (!loop.idle()) {
    deadline += step;
    step = step * 3 + 1;
    events += loop.run_until(deadline);
  }
  EXPECT_EQ(events, full.events);
  ASSERT_EQ(sliced.size(), full.trace.size());
  for (std::size_t i = 0; i < sliced.size(); ++i) {
    ASSERT_EQ(sliced[i], full.trace[i]) << "first divergence at " << i;
  }
}

// Arena discipline: a second wave of work through the same loop must be
// served from recycled nodes — the chunk footprint plateaus and the reuse
// counter keeps climbing.
TEST(TimerWheel, ArenaRecyclesNodesAcrossDrains) {
  EventLoop loop(QueueImpl::kTimerWheel);
  for (std::size_t id = 0; id < 100; ++id) {
    loop.spawn(mixed_client(loop, 7, id, 30));
  }
  loop.run();
  const EventLoopStats first = loop.stats();
  EXPECT_GT(first.arena_bytes, 0u);
  EXPECT_GT(first.arena_reuse, 0u);  // free-list hits already during wave 1

  for (std::size_t id = 0; id < 100; ++id) {
    loop.spawn(mixed_client(loop, 8, id, 30));
  }
  loop.run();
  const EventLoopStats second = loop.stats();
  // Wave 2 needs no new chunks: every node comes off the free list.
  EXPECT_EQ(second.arena_bytes, first.arena_bytes);
  EXPECT_GT(second.arena_reuse, first.arena_reuse);
  EXPECT_EQ(second.past_clamps, 0u);
  // Scheduled events strictly grew and every one of them resumed.
  EXPECT_GT(second.events_scheduled, first.events_scheduled);
  EXPECT_EQ(loop.events_processed(), second.events_scheduled);
}

}  // namespace
}  // namespace imca::sim
