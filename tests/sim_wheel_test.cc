// The DES kernel's determinism pin (DESIGN.md §5h). The kernel's resume
// trace must equal, pair for pair, the (time, seq) trace of an independent
// model: the same sleep-only clients driven from a std::set of
// (time, tie key, seq) that pops its minimum every step and has no in-place
// shortcut. Around it: a wake-up that ties with a queued event queues behind
// it, run_until bounds the shortcut as it bounds pops, timestamps resume in
// order, and run_until slices see the same trace as one run.
//
// The TimerWheel suite name is older than the heap; those tests pin the
// same contract on the one queue there is now.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <tuple>
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

Rng client_rng(std::uint64_t seed, std::size_t id) {
  return Rng(seed ^ (0xD1B54A32D192ED03ull * (id + 1)));
}

// Sleeps from single nanoseconds to seconds: sub-256 ns ticks, powers of
// two and their neighbours, millisecond waits and rare 6 s sleeps, so the
// queue holds a wide spread of pending times.
SimDuration mixed_duration(Rng& rng) {
  const std::uint64_t r = rng.next();
  if (r % 499 == 0) return 6 * kSecond;
  switch ((r >> 8) % 8) {
    case 0: return 1 + r % 250;
    case 1: return 256;
    case 2: return 255 + r % 3;
    case 3: return 65536;
    case 4: return 65535 + r % 3;
    case 5: return (SimDuration{1} << 24) + r % 3;
    case 6: return 1 + r % 60000;
    default: return 1 + r % 5000000;
  }
}

Task<void> mixed_client(EventLoop& loop, std::uint64_t seed, std::size_t id,
                        std::size_t iters) {
  Rng rng = client_rng(seed, id);
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

RunOut run_mixed(std::size_t n_clients, std::size_t iters,
                 std::uint64_t shake = 0) {
  EventLoop loop(shake);
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

// The model. Each client is its generator and the sleeps it has left; its
// spawn is one event at time 0, and each resume queues its next sleep until
// none are left. Tie keys follow the kernel's shake contract.
RunOut run_reference(std::size_t n_clients, std::size_t iters,
                     std::uint64_t shake = 0) {
  struct Client {
    Rng rng;
    std::size_t sleeps_left;
  };
  std::vector<Client> clients;
  std::set<std::tuple<SimTime, std::uint64_t, std::uint64_t, std::size_t>>
      queue;
  std::uint64_t seq = 0;
  const auto schedule = [&](SimTime at, std::size_t client) {
    const std::uint64_t key =
        shake != 0 ? detail::shake_key(shake, seq) : seq;
    queue.emplace(at, key, seq++, client);
  };
  for (std::size_t id = 0; id < n_clients; ++id) {
    clients.push_back({client_rng(42, id), iters});
    schedule(0, id);
  }
  RunOut out;
  while (!queue.empty()) {
    const auto [at, key, s, c] = *queue.begin();
    queue.erase(queue.begin());
    if (!out.trace.empty() && out.trace.back().first == at &&
        out.trace.back().second > s) {
      ++out.stats.tie_shaken;
    }
    out.trace.emplace_back(at, s);
    Client& client = clients[c];
    if (client.sleeps_left > 0) {
      --client.sleeps_left;
      schedule(at + mixed_duration(client.rng), c);
    }
  }
  out.events = out.trace.size();
  out.final_now = out.trace.empty() ? 0 : out.trace.back().first;
  out.stats.events_scheduled = seq;
  return out;
}

void expect_same_run(const RunOut& kernel, const RunOut& model) {
  ASSERT_EQ(kernel.trace.size(), model.trace.size());
  for (std::size_t i = 0; i < kernel.trace.size(); ++i) {
    ASSERT_EQ(kernel.trace[i], model.trace[i]) << "first divergence at " << i;
  }
  EXPECT_EQ(kernel.events, model.events);
  EXPECT_EQ(kernel.final_now, model.final_now);
  EXPECT_EQ(kernel.stats.events_scheduled, model.stats.events_scheduled);
  EXPECT_EQ(kernel.stats.tie_shaken, model.stats.tie_shaken);
  EXPECT_EQ(kernel.stats.past_clamps, 0u);
}

// The determinism pin: element for element, the kernel resumes what the
// model pops, plain and under shake. The shortcut must really have run, or
// the comparison proves nothing about it.
TEST(EventLoopOrder, ResumeTraceMatchesReferenceModel) {
  const RunOut kernel = run_mixed(200, 60);
  const RunOut model = run_reference(200, 60);
  ASSERT_GE(kernel.trace.size(), 10000u);
  expect_same_run(kernel, model);
  EXPECT_EQ(kernel.stats.tie_shaken, 0u);
  EXPECT_GT(kernel.stats.inline_resumes, 0u);
  EXPECT_LT(kernel.stats.inline_resumes, kernel.events);
}

TEST(EventLoopOrder, ShakenResumeTraceMatchesReferenceModel) {
  for (const std::uint64_t seed : {1ull, 7ull, 1234567ull}) {
    SCOPED_TRACE(seed);
    const RunOut kernel = run_mixed(200, 60, seed);
    const RunOut model = run_reference(200, 60, seed);
    expect_same_run(kernel, model);
    EXPECT_GT(kernel.stats.tie_shaken, 0u);  // the 200 spawns tie at 0
    EXPECT_GT(kernel.stats.inline_resumes, 0u);
  }
}

Task<void> stamp_at(EventLoop& loop, SimTime at, int id,
                    std::vector<int>& order) {
  co_await loop.sleep_until(at);
  order.push_back(id);
}

// A wake-up that ties with a queued event is not the next pop: the queued
// event has the smaller seq. It must queue behind it, not resume in place.
TEST(EventLoopOrder, WakeUpTiedWithAQueuedEventQueuesBehindIt) {
  EventLoop loop;
  std::vector<int> order;
  loop.spawn(stamp_at(loop, 100, 1, order));
  loop.spawn([](EventLoop& l, std::vector<int>& o) -> Task<void> {
    co_await l.sleep_until(50);   // nothing queued before 100: in place
    co_await l.sleep_until(100);  // ties with stamp 1, queued first
    o.push_back(2);
  }(loop, order));
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(loop.stats().inline_resumes, 1u);
  EXPECT_EQ(loop.now(), 100u);
}

Task<void> ticker(EventLoop& loop, std::vector<SimTime>& ticks, int n) {
  for (int i = 0; i < n; ++i) {
    co_await loop.sleep(10);
    ticks.push_back(loop.now());
  }
}

// With nothing else queued every tick could resume in place, but the
// deadline of run_until bounds the shortcut as it bounds the pops.
TEST(EventLoopOrder, RunUntilHoldsAWakeUpPastItsDeadline) {
  EventLoop loop;
  std::vector<SimTime> ticks;
  loop.spawn(ticker(loop, ticks, 5));
  EXPECT_EQ(loop.run_until(25), 3u);  // the spawn and two ticks
  EXPECT_EQ(ticks, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(loop.now(), 25u);
  EXPECT_FALSE(loop.idle());  // the tick at 30 waits in the queue
  EXPECT_EQ(loop.run(), 3u);
  EXPECT_EQ(ticks, (std::vector<SimTime>{10, 20, 30, 40, 50}));
  EXPECT_EQ(loop.stats().inline_resumes, 4u);
}

// A coroutine alone on the loop could sleep in place forever; every
// kInPlaceRun in-place resumes the next sleep queues, so control returns to
// the loop and the stack unwinds, and the trace does not change.
TEST(EventLoopOrder, InPlaceRunsReturnToTheLoop) {
  constexpr int kSleeps = 1000;
  Trace trace;
  EventLoop loop;
  loop.set_trace(&trace);
  std::vector<SimTime> ticks;
  loop.spawn(ticker(loop, ticks, kSleeps));
  EXPECT_EQ(loop.run(), kSleeps + 1u);
  const std::uint64_t queued = kSleeps / (EventLoop::kInPlaceRun + 1);
  EXPECT_EQ(loop.stats().inline_resumes, kSleeps - queued);
  ASSERT_EQ(trace.size(), kSleeps + 1u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i], std::make_pair(SimTime{10 * i}, std::uint64_t{i}));
  }
}

// Timestamps around powers of two and far apart come back in timestamp
// order, and equal timestamps in spawn (seq) order.
TEST(TimerWheel, SlotBoundaryTimestampsResumeInOrder) {
  const SimTime k2_32 = SimTime{1} << 32;
  const std::vector<SimTime> ats = {
      255,        256,        257,         65535,       65536,
      65537,      1u << 24,   (1u << 24) + 1,           k2_32 - 1,
      k2_32,      k2_32 + 5,  3 * k2_32 + 7};
  EventLoop loop;
  std::vector<int> order;
  // Spawn in reverse so timestamp order != spawn order globally...
  for (std::size_t i = ats.size(); i > 0; --i) {
    loop.spawn(stamp_at(loop, ats[i - 1], static_cast<int>(i - 1), order));
  }
  // ...and duplicate one timestamp to pin the FIFO tie-break: spawned
  // later => resumes later among equals.
  loop.spawn(stamp_at(loop, 65536, 100, order));
  loop.run();
  ASSERT_EQ(order.size(), ats.size() + 1);
  for (std::size_t i = 0; i < ats.size(); ++i) {
    EXPECT_EQ(order[i + (i > 4 ? 1 : 0)], static_cast<int>(i))
        << "position " << i;
  }
  // The duplicate of ats[4]==65536 was spawned after every other event,
  // so it resumes directly after the original.
  EXPECT_EQ(order[5], 100);
  EXPECT_EQ(loop.now(), 3 * k2_32 + 7);
}

// run_until parked before a far-future event must leave the loop able to
// accept and run nearer events scheduled afterwards, and must not run the
// far event early just because nothing else is queued.
TEST(TimerWheel, RunUntilParkedBeforeFarEventAcceptsNearerWork) {
  EventLoop loop;
  std::vector<int> order;
  loop.spawn(stamp_at(loop, 10 * kSecond, 99, order));

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

// Repeated run_until slices must see the same trace as one uninterrupted
// run() — deadlines may split the stream anywhere, including between a
// wake-up that would resume in place and the event before it.
TEST(TimerWheel, RunUntilSlicingMatchesFullRun) {
  const RunOut full = run_mixed(50, 40);

  EventLoop loop;
  Trace sliced;
  loop.set_trace(&sliced);
  for (std::size_t id = 0; id < 50; ++id) {
    loop.spawn(mixed_client(loop, 42, id, 40));
  }
  std::uint64_t events = 0;
  // Uneven slice widths, deliberately not aligned to anything.
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

}  // namespace
}  // namespace imca::sim
