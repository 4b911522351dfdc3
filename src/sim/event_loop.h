// Discrete-event simulation kernel.
//
// The EventLoop owns the simulated clock and a time-ordered queue of ready
// coroutine handles. `run()` repeatedly pops the earliest event, advances the
// clock to its timestamp and resumes the coroutine. Events with equal
// timestamps resume in FIFO order (a monotone sequence number breaks ties),
// which makes every experiment bit-for-bit reproducible.
//
// The queue is one binary min-heap ordered by (time, tie key, seq)
// (DESIGN.md §5h). The simulations here keep few events pending (a few
// dozen at 64 clients), and at that depth a pop is a handful of compares.
// One exact shortcut rides on it: a sleep whose wake-up is strictly earlier
// than every queued event is the very event the loop would pop next, so the
// sleep takes it in place — clock, seq, counters and trace advance as that
// pop would advance them — and the coroutine does not suspend.
//
// The schedule-shake seed is a constructor argument, fixed for the loop's
// lifetime; testbeds take it from their config.
#pragma once

#include <coroutine>
#include <cstdint>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/task.h"

namespace imca::sim {

// Kernel counters surfaced next to events_processed(). past_clamps counts
// release-mode clamps of schedule_at(at < now) — always 0 in a correct
// program (debug builds assert instead).
struct EventLoopStats {
  std::uint64_t events_scheduled = 0;
  // Of those, wake-ups a sleep took in place instead of through the queue.
  // Each is also one of events_processed().
  std::uint64_t inline_resumes = 0;
  std::uint64_t past_clamps = 0;
  // Same-timestamp pops that resumed a smaller seq right after a larger
  // one: the anti-vacuity signal that a shaken run actually explored a new
  // interleaving. FIFO never does, so it is 0 with tie_shake == 0.
  std::uint64_t tie_shaken = 0;
};

namespace detail {

// Deterministic per-event shake key (splitmix64 over seed ^ seq). Under
// schedule-shake, equal-timestamp events resume in ascending (key, seq)
// order instead of plain seq order: a seeded, reproducible permutation of
// every FIFO tie the kernel would otherwise pin.
inline std::uint64_t shake_key(std::uint64_t seed, std::uint64_t seq) noexcept {
  std::uint64_t x = seed ^ (seq + 0x9e3779b97f4a7c15ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace detail

class EventLoop {
 public:
  // Schedule-shake (DESIGN.md §5k): a non-zero `tie_shake` seed
  // deterministically permutes the resume order of equal-timestamp events —
  // every FIFO tie becomes a seeded draw — so code whose correctness
  // silently leans on the kernel's FIFO tie-break fails loudly under an
  // executable interleaving search. 0 is plain FIFO. Entries are keyed when
  // they are queued, so the seed is fixed for the loop's lifetime.
  explicit EventLoop(std::uint64_t tie_shake = 0) noexcept
      : shake_seed_(tie_shake) {}
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Current simulated time (nanoseconds since simulation start).
  SimTime now() const noexcept { return now_; }

  // Resume `h` once the clock reaches `at`. Scheduling into the simulated
  // past is a bug: debug builds assert, release builds clamp to now() and
  // count it in stats().past_clamps.
  void schedule_at(SimTime at, std::coroutine_handle<> h);

  // Resume `h` at the current simulated time, after already-queued events
  // with the same timestamp.
  void schedule_now(std::coroutine_handle<> h) { schedule_at(now_, h); }

  // Launch `task` as an independent simulated process. The loop owns the
  // coroutine; its frame is freed when it completes. An exception escaping a
  // spawned task terminates the simulation (they model top-level processes
  // and must handle their own errors).
  void spawn(Task<void> task);

  // Begin running a task the CALLER keeps owning. Scheduled like spawn(),
  // but the frame is not adopted: the caller must keep the Task alive until
  // it completes, and destroying the Task cancels the worker at its current
  // suspension point, freeing the frame. This is how long-lived service
  // workers (SMCache's update thread) shut down without leaking.
  void start(Task<void>& task) { schedule_now(task.handle()); }

  // Awaitable: suspend the current coroutine for `d` simulated time.
  // `co_await loop.sleep(0)` yields to other ready coroutines.
  auto sleep(SimDuration d) noexcept { return SleepAwaiter{*this, now_ + d}; }
  auto sleep_until(SimTime at) noexcept {
    return SleepAwaiter{*this, at < now_ ? now_ : at};
  }

  // Run until the event queue drains. Returns the number of events processed.
  std::uint64_t run() { return drain(std::numeric_limits<SimTime>::max()); }

  // Run until the queue drains or the clock would pass `deadline`; events at
  // exactly `deadline` are processed. Returns events processed.
  std::uint64_t run_until(SimTime deadline);

  bool idle() const noexcept { return heap_.empty(); }
  std::uint64_t events_processed() const noexcept { return processed_; }
  std::size_t live_tasks() const noexcept { return live_tasks_; }

  EventLoopStats stats() const noexcept {
    return EventLoopStats{scheduled_, inline_resumes_, past_clamps_,
                          tie_shaken_};
  }

  std::uint64_t tie_shake() const noexcept { return shake_seed_; }

  // In-place resumes allowed between two pops; the next sleep queues. Where
  // symmetric transfer between coroutines is not a tail call (sanitizer and
  // unoptimized builds), every transfer nests a stack frame until control
  // returns to the loop, so a chain of in-place resumes must not run on
  // unbounded.
  static constexpr std::uint32_t kInPlaceRun = 64;

  // Test hook: record every resume, in place or popped, as a (time, seq)
  // pair. Null disables.
  void set_trace(
      std::vector<std::pair<SimTime, std::uint64_t>>* sink) noexcept {
    trace_ = sink;
  }

 private:
  struct SleepAwaiter {
    EventLoop& loop;
    SimTime at;
    bool await_ready() const noexcept { return loop.resume_in_place(at); }
    void await_suspend(std::coroutine_handle<> h) const {
      loop.schedule_at(at, h);
    }
    void await_resume() const noexcept {}
  };

  struct Entry {
    SimTime at;
    // Tie-break among equal timestamps: (key, seq). Unshaken runs queue
    // key == seq, so the pair degenerates to plain FIFO; shaken runs queue
    // detail::shake_key(seed, seq).
    std::uint64_t key;
    std::uint64_t seq;
    std::coroutine_handle<> handle;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      if (a.key != b.key) return a.key > b.key;
      return a.seq > b.seq;
    }
  };

  // The shortcut. A coroutine only runs inside a resume the loop made, and
  // every suspension hands control straight back to the loop, which pops
  // the queue's minimum next. A wake-up strictly earlier than every queued
  // event and not past the running deadline is that minimum, whatever its
  // tie key, so the pop is done here and the caller carries on. Ties queue.
  bool resume_in_place(SimTime at) noexcept {
    if (in_place_left_ == 0 || at < now_ || at > deadline_) return false;
    if (!heap_.empty() && at >= heap_.top().at) return false;
    --in_place_left_;
    now_ = at;
    if (trace_ != nullptr) [[unlikely]] trace_->emplace_back(at, seq_);
    ++seq_;
    ++scheduled_;
    ++processed_;
    ++inline_resumes_;
    return true;
  }

  // Resume queued events up to `deadline` (inclusive). Returns the events
  // processed, those taken in place included.
  std::uint64_t drain(SimTime deadline);

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::vector<std::pair<SimTime, std::uint64_t>>* trace_ = nullptr;
  SimTime now_ = 0;
  // Latest time a wake-up may resume in place: the deadline of the last
  // run()/run_until(), the only place coroutines run.
  SimTime deadline_ = 0;
  std::uint64_t seq_ = 0;
  // Seq of the last popped event. An event taken in place never needs it:
  // every event queued at its timestamp after it has a larger seq.
  std::uint64_t last_seq_ = 0;
  std::uint32_t in_place_left_ = kInPlaceRun;
  const std::uint64_t shake_seed_;
  std::uint64_t processed_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t inline_resumes_ = 0;
  std::uint64_t past_clamps_ = 0;
  std::uint64_t tie_shaken_ = 0;
  std::size_t live_tasks_ = 0;
};

}  // namespace imca::sim
