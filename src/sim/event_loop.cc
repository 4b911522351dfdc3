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
  const std::uint64_t key =
      shake_seed_ != 0 ? detail::shake_key(shake_seed_, seq_) : seq_;
  heap_.push(Entry{at, key, seq_++, h});
}

void EventLoop::spawn(Task<void> task) {
  ++live_tasks_;
  Detached d = detach_and_count(std::move(task), live_tasks_);
  schedule_now(d.handle);
}

std::uint64_t EventLoop::drain(SimTime deadline) {
  deadline_ = deadline;
  const std::uint64_t before = processed_;
  while (!heap_.empty() && heap_.top().at <= deadline) {
    const Entry e = heap_.top();
    heap_.pop();
    if (e.at == now_ && e.seq < last_seq_) ++tie_shaken_;
    now_ = e.at;
    last_seq_ = e.seq;
    if (trace_ != nullptr) [[unlikely]] trace_->emplace_back(e.at, e.seq);
    ++processed_;
    in_place_left_ = kInPlaceRun;
    e.handle.resume();
  }
  return processed_ - before;
}

std::uint64_t EventLoop::run_until(SimTime deadline) {
  const std::uint64_t n = drain(deadline);
  if (now_ < deadline) now_ = deadline;
  return n;
}

}  // namespace imca::sim
