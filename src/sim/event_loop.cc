#include "sim/event_loop.h"

#include <cassert>

namespace imca::sim {

namespace {

// Wrapper coroutine that owns a spawned task for its whole lifetime. The
// frame (and the Task parameter captured inside it) self-destroys at
// completion because final_suspend() never suspends. Its frame is pooled
// like a Task's.
struct Detached {
  struct promise_type {
    static void* operator new(std::size_t n) {
      return detail::FramePool::allocate(n);
    }
    static void operator delete(void* p, std::size_t n) noexcept {
      detail::FramePool::deallocate(p, n);
    }
    Detached get_return_object() noexcept {
      return Detached{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() const noexcept { return {}; }
    std::suspend_never final_suspend() const noexcept { return {}; }
    void return_void() const noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }
  };
  std::coroutine_handle<promise_type> handle;
};

Detached detach_and_count(Task<void> task, std::size_t& live) {
  struct Decrement {
    std::size_t& live;
    ~Decrement() { --live; }
  } dec{live};
  co_await std::move(task);
}
}  // namespace

void EventLoop::schedule_at(SimTime at, std::coroutine_handle<> h) {
  if (at < now_) [[unlikely]] {
    assert(at >= now_ && "cannot schedule into the simulated past");
    at = now_;  // release builds clamp; stats().past_clamps records it
    ++past_clamps_;
  }
  ++scheduled_;
  if (impl_ == QueueImpl::kTimerWheel) {
    // A near-term schedule (channel handoffs, schedule_now chains, short
    // device-tick sleeps) resumes soon; its coroutine frame went cold while
    // parked, so start the line fill now — by resume time it has at worst
    // decayed to an outer-cache hit instead of a full memory stall. Longer
    // sleeps are warmed later, by the level-1 cascade that precedes their
    // resume (TimerWheel::cascade_slot).
    constexpr SimTime kFramePrefetchHorizon = 4096;
    if (at - now_ <= kFramePrefetchHorizon) {
      detail::prefetch_frame(h.address());
    }
    wheel_.insert(arena_.alloc(at, seq_++, h));
  } else {
    const std::uint64_t key =
        shake_seed_ != 0 ? detail::shake_key(shake_seed_, seq_) : seq_;
    heap_.push(HeapEntry{at, key, seq_++, h});
  }
}

void EventLoop::spawn(Task<void> task) {
  ++live_tasks_;
  Detached d = detach_and_count(std::move(task), live_tasks_);
  schedule_now(d.handle);
}

std::coroutine_handle<> EventLoop::take_next() {
  if (impl_ == QueueImpl::kTimerWheel) {
    EventNode* e = wheel_.pop_min();
    now_ = e->at;
    if (trace_ != nullptr) trace_->emplace_back(e->at, e->seq);
    const std::coroutine_handle<> h = e->handle;
    // Copy-out complete and the node is unlinked: recycle it before the
    // resume so the steady path's next schedule_at reuses it cache-hot.
    arena_.release(e);
    return h;
  }
  const HeapEntry e = heap_.top();
  heap_.pop();
  now_ = e.at;
  if (trace_ != nullptr) trace_->emplace_back(e.at, e.seq);
  return e.handle;
}

std::uint64_t EventLoop::run() {
  std::uint64_t n = 0;
  if (impl_ == QueueImpl::kTimerWheel) {
    while (!wheel_.empty()) {
      EventNode* e = wheel_.pop_min();
      now_ = e->at;
      if (trace_ != nullptr) [[unlikely]] trace_->emplace_back(e->at, e->seq);
      const std::coroutine_handle<> h = e->handle;
      // Copy-out complete and the node is unlinked: recycle it before the
      // resume so the steady path's next schedule_at reuses it cache-hot.
      arena_.release(e);
      ++n;
      ++processed_;
      h.resume();
    }
  } else {
    while (!heap_.empty()) {
      const std::coroutine_handle<> h = take_next();
      ++n;
      ++processed_;
      h.resume();
    }
  }
  return n;
}

std::uint64_t EventLoop::run_until(SimTime deadline) {
  std::uint64_t n = 0;
  while (!idle()) {
    const SimTime next = impl_ == QueueImpl::kTimerWheel
                             ? wheel_.peek_min_time()
                             : heap_.top().at;
    if (next > deadline) break;
    const std::coroutine_handle<> h = take_next();
    ++n;
    ++processed_;
    h.resume();
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

}  // namespace imca::sim
