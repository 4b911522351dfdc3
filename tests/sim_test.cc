// Unit tests for the discrete-event kernel: clock semantics, task chaining,
// synchronization primitives and the FIFO queueing resource.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/expected.h"
#include "sim/event_loop.h"
#include "sim/resource.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace imca::sim {
namespace {

TEST(EventLoop, StartsAtZeroAndIdle) {
  EventLoop loop;
  EXPECT_EQ(loop.now(), 0u);
  EXPECT_TRUE(loop.idle());
  EXPECT_EQ(loop.run(), 0u);
}

Task<void> sleeper(EventLoop& loop, SimDuration d, SimTime& woke_at) {
  co_await loop.sleep(d);
  woke_at = loop.now();
}

TEST(EventLoop, SleepAdvancesClock) {
  EventLoop loop;
  SimTime woke = 0;
  loop.spawn(sleeper(loop, 250, woke));
  loop.run();
  EXPECT_EQ(woke, 250u);
  EXPECT_EQ(loop.now(), 250u);
}

TEST(EventLoop, ZeroSleepYields) {
  EventLoop loop;
  std::vector<int> order;
  auto a = [](EventLoop& l, std::vector<int>& ord) -> Task<void> {
    ord.push_back(1);
    co_await l.sleep(0);
    ord.push_back(3);
  };
  auto b = [](EventLoop& l, std::vector<int>& ord) -> Task<void> {
    ord.push_back(2);
    co_await l.sleep(0);
    ord.push_back(4);
  };
  loop.spawn(a(loop, order));
  loop.spawn(b(loop, order));
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventLoop, EqualTimestampsAreFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.spawn([](EventLoop& l, std::vector<int>& ord, int id) -> Task<void> {
      co_await l.sleep(100);
      ord.push_back(id);
    }(loop, order, i));
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

Task<int> forty_two() { co_return 42; }

Task<void> await_value(int& out) { out = co_await forty_two(); }

TEST(Task, ReturnsValueThroughAwait) {
  EventLoop loop;
  int out = 0;
  loop.spawn(await_value(out));
  loop.run();
  EXPECT_EQ(out, 42);
}

Task<int> add_chain(EventLoop& loop, int depth) {
  if (depth == 0) co_return 0;
  co_await loop.sleep(1);
  const int below = co_await add_chain(loop, depth - 1);
  co_return below + 1;
}

TEST(Task, DeepChainingAccumulates) {
  EventLoop loop;
  int result = -1;
  loop.spawn([](EventLoop& l, int& out) -> Task<void> {
    out = co_await add_chain(l, 100);
  }(loop, result));
  loop.run();
  EXPECT_EQ(result, 100);
  EXPECT_EQ(loop.now(), 100u);  // one 1ns sleep per level
}

TEST(Task, MoveOnlyResult) {
  EventLoop loop;
  std::unique_ptr<int> got;
  loop.spawn([](std::unique_ptr<int>& out) -> Task<void> {
    out = co_await []() -> Task<std::unique_ptr<int>> {
      co_return std::make_unique<int>(9);
    }();
  }(got));
  loop.run();
  ASSERT_TRUE(got);
  EXPECT_EQ(*got, 9);
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  SimTime woke = 0;
  loop.spawn(sleeper(loop, 1000, woke));
  loop.run_until(500);
  EXPECT_EQ(woke, 0u);        // not yet
  EXPECT_EQ(loop.now(), 500u);  // clock parked at the deadline
  loop.run();
  EXPECT_EQ(woke, 1000u);
}

// --- frame pool ---

Task<int> one_after(EventLoop& loop, SimDuration d) {
  co_await loop.sleep(d);
  co_return 1;
}

Task<void> adder(EventLoop& loop, SimDuration d, int& sum) {
  sum += co_await one_after(loop, d);
}

// Each spawned task here takes three frames: spawn's wrapper, adder and
// one_after. Once a first run has warmed the thread's pool, a hundred more
// runs on fresh loops (10k tasks) take every frame from the free lists.
TEST(FramePool, RecyclesFramesAcrossRuns) {
  if (!detail::FramePool::kPooled) {
    GTEST_SKIP() << "frames bypass the pool under AddressSanitizer";
  }
  constexpr int kTasks = 100;
  int sum = 0;
  auto one_run = [&sum] {
    EventLoop loop;
    for (int i = 0; i < kTasks; ++i) {
      loop.spawn(adder(loop, static_cast<SimDuration>(i % 7), sum));
    }
    loop.run();
  };
  one_run();
  const std::uint64_t fresh = detail::FramePool::fresh_blocks();
  const std::uint64_t reuse = detail::FramePool::reuse();
  EXPECT_GT(fresh, 0u);
  for (int r = 0; r < 100; ++r) one_run();
  EXPECT_EQ(detail::FramePool::fresh_blocks(), fresh);
  EXPECT_EQ(detail::FramePool::reuse() - reuse, 3u * 100 * kTasks);
  EXPECT_EQ(sum, 101 * kTasks);
}

TEST(EventLoop, LiveTaskCountTracksSpawns) {
  EventLoop loop;
  SimTime w1 = 0, w2 = 0;
  loop.spawn(sleeper(loop, 10, w1));
  loop.spawn(sleeper(loop, 20, w2));
  EXPECT_EQ(loop.live_tasks(), 2u);
  loop.run();
  EXPECT_EQ(loop.live_tasks(), 0u);
}

// --- Event ---

TEST(Sync, EventReleasesAllWaiters) {
  EventLoop loop;
  Event ev(loop);
  int released = 0;
  for (int i = 0; i < 3; ++i) {
    loop.spawn([](Event& e, int& n) -> Task<void> {
      co_await e.wait();
      ++n;
    }(ev, released));
  }
  loop.spawn([](EventLoop& l, Event& e) -> Task<void> {
    co_await l.sleep(50);
    e.set();
  }(loop, ev));
  loop.run();
  EXPECT_EQ(released, 3);
  EXPECT_TRUE(ev.is_set());
}

TEST(Sync, EventWaitAfterSetIsImmediate) {
  EventLoop loop;
  Event ev(loop);
  ev.set();
  SimTime woke = 1;
  loop.spawn([](EventLoop& l, Event& e, SimTime& t) -> Task<void> {
    co_await e.wait();
    t = l.now();
  }(loop, ev, woke));
  loop.run();
  EXPECT_EQ(woke, 0u);
}

// --- Channel ---

TEST(Sync, ChannelDeliversInOrder) {
  EventLoop loop;
  Channel<int> ch(loop);
  std::vector<int> got;
  loop.spawn([](Channel<int>& c, std::vector<int>& out) -> Task<void> {
    for (int i = 0; i < 3; ++i) out.push_back(co_await c.recv());
  }(ch, got));
  loop.spawn([](EventLoop& l, Channel<int>& c) -> Task<void> {
    c.send(1);
    co_await l.sleep(10);
    c.send(2);
    c.send(3);
  }(loop, ch));
  loop.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Sync, ChannelBuffersWhenNoReceiver) {
  EventLoop loop;
  Channel<int> ch(loop);
  ch.send(5);
  ch.send(6);
  EXPECT_EQ(ch.pending(), 2u);
  int sum = 0;
  loop.spawn([](Channel<int>& c, int& s) -> Task<void> {
    s += co_await c.recv();
    s += co_await c.recv();
  }(ch, sum));
  loop.run();
  EXPECT_EQ(sum, 11);
  EXPECT_TRUE(ch.empty());
}

TEST(Sync, ChannelTwoReceiversBothServed) {
  EventLoop loop;
  Channel<int> ch(loop);
  int a = 0, b = 0;
  loop.spawn([](Channel<int>& c, int& out) -> Task<void> {
    out = co_await c.recv();
  }(ch, a));
  loop.spawn([](Channel<int>& c, int& out) -> Task<void> {
    out = co_await c.recv();
  }(ch, b));
  loop.spawn([](EventLoop& l, Channel<int>& c) -> Task<void> {
    co_await l.sleep(1);
    c.send(10);
    c.send(20);
  }(loop, ch));
  loop.run();
  EXPECT_EQ(a, 10);
  EXPECT_EQ(b, 20);
}

// --- SimMutex ---

TEST(Sync, MutexSerializesCriticalSections) {
  EventLoop loop;
  SimMutex mu(loop);
  int inside = 0;
  int max_inside = 0;
  for (int i = 0; i < 4; ++i) {
    loop.spawn([](EventLoop& l, SimMutex& m, int& in, int& mx) -> Task<void> {
      auto g = co_await ScopedLock::acquire(m);
      ++in;
      mx = std::max(mx, in);
      co_await l.sleep(100);
      --in;
    }(loop, mu, inside, max_inside));
  }
  loop.run();
  EXPECT_EQ(max_inside, 1);
  EXPECT_EQ(loop.now(), 400u);  // 4 critical sections of 100ns serialized
  EXPECT_FALSE(mu.locked());
}

TEST(Sync, MutexFifoOrder) {
  EventLoop loop;
  SimMutex mu(loop);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    loop.spawn([](EventLoop& l, SimMutex& m, std::vector<int>& ord,
                  int id) -> Task<void> {
      auto g = co_await ScopedLock::acquire(m);
      ord.push_back(id);
      co_await l.sleep(10);
    }(loop, mu, order, i));
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// --- Semaphore ---

TEST(Sync, SemaphoreLimitsConcurrency) {
  EventLoop loop;
  Semaphore sem(loop, 2);
  int inside = 0, max_inside = 0;
  for (int i = 0; i < 6; ++i) {
    loop.spawn([](EventLoop& l, Semaphore& s, int& in, int& mx) -> Task<void> {
      co_await s.acquire();
      ++in;
      mx = std::max(mx, in);
      co_await l.sleep(100);
      --in;
      s.release();
    }(loop, sem, inside, max_inside));
  }
  loop.run();
  EXPECT_EQ(max_inside, 2);
  EXPECT_EQ(loop.now(), 300u);  // 6 jobs, 2 at a time, 100ns each
  EXPECT_EQ(sem.available(), 2u);
}

// --- Barrier ---

TEST(Sync, BarrierReleasesTogether) {
  EventLoop loop;
  Barrier bar(loop, 3);
  std::vector<SimTime> release_times;
  for (int i = 0; i < 3; ++i) {
    loop.spawn([](EventLoop& l, Barrier& b, std::vector<SimTime>& out,
                  int id) -> Task<void> {
      co_await l.sleep(static_cast<SimDuration>(id) * 100);  // staggered arrival
      co_await b.arrive_and_wait();
      out.push_back(l.now());
    }(loop, bar, release_times, i));
  }
  loop.run();
  ASSERT_EQ(release_times.size(), 3u);
  for (auto t : release_times) EXPECT_EQ(t, 200u);  // last arriver's time
}

TEST(Sync, BarrierIsReusableAcrossPhases) {
  EventLoop loop;
  Barrier bar(loop, 2);
  std::vector<SimTime> times;
  for (int i = 0; i < 2; ++i) {
    loop.spawn([](EventLoop& l, Barrier& b, std::vector<SimTime>& out,
                  int id) -> Task<void> {
      for (int phase = 0; phase < 3; ++phase) {
        co_await l.sleep(static_cast<SimDuration>(id + 1) * 10);
        co_await b.arrive_and_wait();
        if (id == 0) out.push_back(l.now());
      }
    }(loop, bar, times, i));
  }
  loop.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], 20u);
  EXPECT_EQ(times[1], 40u);
  EXPECT_EQ(times[2], 60u);
}

// --- when_all ---

TEST(Sync, WhenAllWaitsForSlowest) {
  EventLoop loop;
  SimTime done_at = 0;
  loop.spawn([](EventLoop& l, SimTime& out) -> Task<void> {
    std::vector<Task<void>> kids;
    for (int i = 1; i <= 4; ++i) {
      kids.push_back([](EventLoop& ll, SimDuration d) -> Task<void> {
        co_await ll.sleep(d);
      }(l, static_cast<SimDuration>(i) * 100));
    }
    co_await when_all(l, std::move(kids));
    out = l.now();
  }(loop, done_at));
  loop.run();
  EXPECT_EQ(done_at, 400u);  // children ran concurrently, not serially
}

TEST(Sync, WhenAllEmptyCompletesImmediately) {
  EventLoop loop;
  bool done = false;
  loop.spawn([](EventLoop& l, bool& d) -> Task<void> {
    co_await when_all(l, {});
    d = true;
  }(loop, done));
  loop.run();
  EXPECT_TRUE(done);
}

// --- gather ---

TEST(Sync, GatherKeepsInputOrderWhenChildrenFinishInReverse) {
  EventLoop loop;
  std::vector<int> results;
  std::vector<int> finished;
  loop.spawn([](EventLoop& l, std::vector<int>& out,
                std::vector<int>& fin) -> Task<void> {
    std::vector<Task<int>> kids;
    for (int i = 0; i < 4; ++i) {
      kids.push_back([](EventLoop& ll, std::vector<int>& f, int id)
                         -> Task<int> {
        co_await ll.sleep(static_cast<SimDuration>(4 - id) * 10);
        f.push_back(id);
        co_return id * 100;
      }(l, fin, i));
    }
    out = co_await gather(l, std::move(kids));
  }(loop, results, finished));
  loop.run();
  EXPECT_EQ(finished, (std::vector<int>{3, 2, 1, 0}));
  EXPECT_EQ(results, (std::vector<int>{0, 100, 200, 300}));
}

// One resume point of a staggered child (or of the joining parent, id -1).
struct Resume {
  int id;
  SimTime at;
  bool operator==(const Resume&) const = default;
};

Task<void> staggered_void(EventLoop& l, std::vector<Resume>& trace, int id,
                          SimDuration d) {
  trace.push_back({id, l.now()});
  co_await l.sleep(d);
  trace.push_back({id, l.now()});
  co_await l.sleep(d / 2);
  trace.push_back({id, l.now()});
}

Task<int> staggered_int(EventLoop& l, std::vector<Resume>& trace, int id,
                        SimDuration d) {
  co_await staggered_void(l, trace, id, d);
  co_return id;
}

constexpr SimDuration kStagger[] = {30, 10, 20, 10, 0, 30};

// The same staggered children under when_all and under gather: the resume
// trace and the event count.
std::pair<std::vector<Resume>, std::uint64_t> staggered_run(bool use_gather) {
  EventLoop loop;
  std::vector<Resume> trace;
  loop.spawn([](EventLoop& l, std::vector<Resume>& t,
                bool g) -> Task<void> {
    if (g) {
      std::vector<Task<int>> kids;
      for (int i = 0; i < 6; ++i) {
        kids.push_back(staggered_int(l, t, i, kStagger[i]));
      }
      auto ids = co_await gather(l, std::move(kids));
      EXPECT_EQ(ids, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    } else {
      std::vector<Task<void>> kids;
      for (int i = 0; i < 6; ++i) {
        kids.push_back(staggered_void(l, t, i, kStagger[i]));
      }
      co_await when_all(l, std::move(kids));
    }
    t.push_back({-1, l.now()});
  }(loop, trace, use_gather));
  const std::uint64_t events = loop.run();
  return {trace, events};
}

TEST(Sync, GatherResumesChildrenExactlyLikeWhenAll) {
  const auto with_when_all = staggered_run(false);
  const auto with_gather = staggered_run(true);
  EXPECT_EQ(with_gather.first.size(), 6u * 3 + 1);
  EXPECT_TRUE(with_gather.first == with_when_all.first);
  EXPECT_EQ(with_gather.second, with_when_all.second);
  EXPECT_EQ(with_gather.first.back(), (Resume{-1, 30 + 15}));
}

TEST(Sync, GatherEmptySchedulesNoEvent) {
  EventLoop loop;
  bool done = false;
  loop.spawn([](EventLoop& l, bool& d) -> Task<void> {
    const std::uint64_t before = l.events_processed();
    std::vector<Task<int>> none;
    auto out = co_await gather(l, std::move(none));
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(l.events_processed(), before);
    d = true;
  }(loop, done));
  EXPECT_EQ(loop.run(), 1u);  // the spawn itself, nothing more
  EXPECT_TRUE(done);
}

TEST(Sync, GatherMovesMoveOnlyResults) {
  EventLoop loop;
  std::vector<Expected<Buffer>> bufs;
  std::vector<std::unique_ptr<int>> ptrs;
  loop.spawn([](EventLoop& l, std::vector<Expected<Buffer>>& out,
                std::vector<std::unique_ptr<int>>& owned) -> Task<void> {
    std::vector<Task<Expected<Buffer>>> reads;
    reads.push_back([](EventLoop& ll) -> Task<Expected<Buffer>> {
      co_await ll.sleep(5);
      co_return Buffer::of_string("late");
    }(l));
    reads.push_back([]() -> Task<Expected<Buffer>> {
      co_return Errc::kNoEnt;
    }());
    out = co_await gather(l, std::move(reads));
    std::vector<Task<std::unique_ptr<int>>> makes;
    for (int i = 0; i < 2; ++i) {
      makes.push_back([](int v) -> Task<std::unique_ptr<int>> {
        co_return std::make_unique<int>(v);
      }(i + 7));
    }
    owned = co_await gather(l, std::move(makes));
  }(loop, bufs, ptrs));
  loop.run();
  ASSERT_EQ(bufs.size(), 2u);
  ASSERT_TRUE(bufs[0].has_value());
  EXPECT_EQ(bufs[0]->size(), 4u);
  EXPECT_EQ(bufs[1].error(), Errc::kNoEnt);
  ASSERT_EQ(ptrs.size(), 2u);
  EXPECT_EQ(*ptrs[0], 7);
  EXPECT_EQ(*ptrs[1], 8);
}

// --- FifoResource ---

TEST(Resource, SingleServerSerializes) {
  EventLoop loop;
  FifoResource disk(loop, 1, "disk");
  std::vector<SimTime> done;
  for (int i = 0; i < 3; ++i) {
    loop.spawn([](FifoResource& r, std::vector<SimTime>& out,
                  EventLoop& l) -> Task<void> {
      co_await r.use(100);
      out.push_back(l.now());
    }(disk, done, loop));
  }
  loop.run();
  EXPECT_EQ(done, (std::vector<SimTime>{100, 200, 300}));
  EXPECT_EQ(disk.requests(), 3u);
  EXPECT_EQ(disk.total_busy(), 300u);
}

TEST(Resource, MultiServerRunsInParallel) {
  EventLoop loop;
  FifoResource cpu(loop, 2, "cpu");
  std::vector<SimTime> done;
  for (int i = 0; i < 4; ++i) {
    loop.spawn([](FifoResource& r, std::vector<SimTime>& out,
                  EventLoop& l) -> Task<void> {
      co_await r.use(100);
      out.push_back(l.now());
    }(cpu, done, loop));
  }
  loop.run();
  EXPECT_EQ(done, (std::vector<SimTime>{100, 100, 200, 200}));
}

TEST(Resource, QueueWaitAccounted) {
  EventLoop loop;
  FifoResource r(loop, 1);
  loop.spawn([](FifoResource& res) -> Task<void> {
    co_await res.use(100);
  }(r));
  loop.spawn([](FifoResource& res) -> Task<void> {
    co_await res.use(100);  // waits 100 behind the first
  }(r));
  loop.run();
  EXPECT_EQ(r.total_queued(), 100u);
  EXPECT_GT(r.mean_queue_wait_ns(), 0.0);
}

TEST(Resource, ReserveBooksWithoutWaiting) {
  EventLoop loop;
  FifoResource nic(loop, 1);
  loop.spawn([](EventLoop& l, FifoResource& r) -> Task<void> {
    const SimTime t1 = r.reserve(100);
    const SimTime t2 = r.reserve(50);
    EXPECT_EQ(t1, 100u);
    EXPECT_EQ(t2, 150u);  // queued behind the first booking
    EXPECT_EQ(l.now(), 0u);  // no waiting happened
    co_return;
  }(loop, nic));
  loop.run();
}

TEST(Resource, UtilizationReflectsBusyFraction) {
  EventLoop loop;
  FifoResource r(loop, 1);
  loop.spawn([](EventLoop& l, FifoResource& res) -> Task<void> {
    co_await res.use(100);
    co_await l.sleep(100);  // idle period
  }(loop, r));
  loop.run();
  EXPECT_NEAR(r.utilization(), 0.5, 1e-9);
}

// Determinism: the same program produces the same event count and clock.
TEST(Determinism, RepeatedRunsIdentical) {
  auto program = [] {
    EventLoop loop;
    FifoResource r(loop, 2);
    Barrier bar(loop, 8);
    for (int i = 0; i < 8; ++i) {
      loop.spawn([](EventLoop& l, FifoResource& res, Barrier& b,
                    int id) -> Task<void> {
        co_await l.sleep(static_cast<SimDuration>(id % 3));
        co_await res.use(50 + static_cast<SimDuration>(id));
        co_await b.arrive_and_wait();
        co_await l.sleep(5);
      }(loop, r, bar, i));
    }
    loop.run();
    return std::pair{loop.now(), loop.events_processed()};
  };
  const auto a = program();
  const auto b = program();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace imca::sim
