// Coroutine synchronization primitives for simulated processes.
//
//  * Event     — one-shot level-triggered gate (multiple waiters).
//  * Channel<T>— unbounded FIFO message queue (the spine of mailboxes and
//                daemon request queues).
//  * SimMutex  — FIFO mutual exclusion on simulated time.
//  * Semaphore — counting semaphore, FIFO wakeup.
//  * Barrier   — reusable N-party barrier (the multi-client benchmarks in the
//                paper separate phases and record sizes with barriers).
//  * when_all  — run a batch of tasks concurrently, resume when all finish.
//  * gather    — when_all for tasks with results, returned in input order.
//
// All primitives wake waiters *through the event queue* (never by resuming
// inline), so wakeup order is governed by the loop's deterministic FIFO
// tie-break and no primitive re-enters user code from inside set()/send().
#pragma once

#include <cassert>
#include <coroutine>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/event_loop.h"
#include "sim/task.h"

namespace imca::sim {

class Event {
 public:
  explicit Event(EventLoop& loop) noexcept : loop_(loop) {}

  void set() {
    if (set_) return;
    set_ = true;
    for (auto h : waiters_) loop_.schedule_now(h);
    waiters_.clear();
  }
  bool is_set() const noexcept { return set_; }

  auto wait() noexcept {
    struct Awaiter {
      Event& event;
      bool await_ready() const noexcept { return event.set_; }
      void await_suspend(std::coroutine_handle<> h) {
        event.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  EventLoop& loop_;
  std::vector<std::coroutine_handle<>> waiters_;
  bool set_ = false;
};

template <typename T>
class Channel {
 public:
  explicit Channel(EventLoop& loop) noexcept : loop_(loop) {}

  // Deliver a value. If a receiver is parked, the value is handed to it
  // directly (bypassing the queue) and it is scheduled at the current time.
  void send(T value) {
    if (!receivers_.empty()) {
      Receiver* r = receivers_.front();
      receivers_.pop_front();
      r->slot.emplace(std::move(value));
      loop_.schedule_now(r->handle);
    } else {
      items_.push_back(std::move(value));
    }
  }

  // Awaitable receive; suspends until a value is available.
  auto recv() noexcept {
    struct Awaiter : Receiver {
      Channel& ch;
      explicit Awaiter(Channel& c) noexcept : ch(c) {}
      bool await_ready() {
        if (ch.items_.empty()) return false;
        this->slot.emplace(std::move(ch.items_.front()));
        ch.items_.pop_front();
        return true;
      }
      void await_suspend(std::coroutine_handle<> h) {
        this->handle = h;
        ch.receivers_.push_back(this);
      }
      T await_resume() {
        assert(this->slot.has_value());
        return std::move(*this->slot);
      }
    };
    return Awaiter{*this};
  }

  std::size_t pending() const noexcept { return items_.size(); }
  bool empty() const noexcept { return items_.empty(); }

 private:
  struct Receiver {
    std::coroutine_handle<> handle;
    std::optional<T> slot;
  };

  EventLoop& loop_;
  std::deque<T> items_;
  std::deque<Receiver*> receivers_;
};

class SimMutex {
 public:
  explicit SimMutex(EventLoop& loop) noexcept : loop_(loop) {}

  auto lock() noexcept {
    struct Awaiter {
      SimMutex& m;
      bool await_ready() {
        if (m.locked_) return false;
        m.locked_ = true;
        return true;
      }
      void await_suspend(std::coroutine_handle<> h) {
        m.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void unlock() {
    assert(locked_);
    if (!waiters_.empty()) {
      // Ownership transfers to the first waiter; locked_ stays true.
      auto h = waiters_.front();
      waiters_.pop_front();
      loop_.schedule_now(h);
    } else {
      locked_ = false;
    }
  }

  bool locked() const noexcept { return locked_; }

 private:
  EventLoop& loop_;
  std::deque<std::coroutine_handle<>> waiters_;
  bool locked_ = false;
};

// RAII guard: `auto g = co_await ScopedLock::acquire(mutex);`
class ScopedLock {
 public:
  static Task<ScopedLock> acquire(SimMutex& m) {
    co_await m.lock();
    co_return ScopedLock(m);
  }
  ScopedLock(ScopedLock&& other) noexcept
      : mutex_(std::exchange(other.mutex_, nullptr)) {}
  ScopedLock& operator=(ScopedLock&&) = delete;
  ScopedLock(const ScopedLock&) = delete;
  ~ScopedLock() {
    if (mutex_) mutex_->unlock();
  }

 private:
  explicit ScopedLock(SimMutex& m) noexcept : mutex_(&m) {}
  SimMutex* mutex_;
};

class Semaphore {
 public:
  Semaphore(EventLoop& loop, std::uint64_t initial) noexcept
      : loop_(loop), count_(initial) {}

  auto acquire() noexcept {
    struct Awaiter {
      Semaphore& s;
      bool await_ready() {
        if (s.count_ == 0) return false;
        --s.count_;
        return true;
      }
      void await_suspend(std::coroutine_handle<> h) {
        s.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void release() {
    if (!waiters_.empty()) {
      // The released unit passes straight to the first waiter.
      auto h = waiters_.front();
      waiters_.pop_front();
      loop_.schedule_now(h);
    } else {
      ++count_;
    }
  }

  std::uint64_t available() const noexcept { return count_; }

 private:
  EventLoop& loop_;
  std::deque<std::coroutine_handle<>> waiters_;
  std::uint64_t count_;
};

class Barrier {
 public:
  Barrier(EventLoop& loop, std::size_t parties) noexcept
      : loop_(loop), parties_(parties) {
    assert(parties > 0);
  }

  // Awaitable: the first parties-1 arrivers suspend; the last arriver
  // releases everyone and continues without suspending. The barrier then
  // resets for reuse (phase after phase, as in the paper's benchmarks).
  auto arrive_and_wait() noexcept {
    struct Awaiter {
      Barrier& b;
      bool await_ready() {
        if (b.arrived_ + 1 == b.parties_) {
          b.arrived_ = 0;
          for (auto h : b.waiters_) b.loop_.schedule_now(h);
          b.waiters_.clear();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        ++b.arrived_;
        b.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  std::size_t parties() const noexcept { return parties_; }

 private:
  EventLoop& loop_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

// Run `tasks` concurrently on `loop`; the returned task completes when every
// child has completed. Children run as spawned processes, so they interleave
// on the simulated clock like independent nodes.
Task<void> when_all(EventLoop& loop, std::vector<Task<void>> tasks);

namespace detail {

template <typename T>
Task<void> store_result(Task<T> task, std::optional<T>& slot) {
  slot.emplace(co_await std::move(task));
}

}  // namespace detail

// when_all for tasks that return a value: the children run under when_all
// itself, so they are spawned and joined exactly as its void children are,
// and the results come back in input order. The slots live in this
// coroutine's frame, which outlives every child because when_all does not
// return until the last one has stored its result.
template <typename T>
Task<std::vector<T>> gather(EventLoop& loop, std::vector<Task<T>> tasks) {
  std::vector<std::optional<T>> slots(tasks.size());
  std::vector<Task<void>> children;
  children.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    children.push_back(detail::store_result(std::move(tasks[i]), slots[i]));
  }
  co_await when_all(loop, std::move(children));
  std::vector<T> results;
  results.reserve(slots.size());
  for (auto& slot : slots) results.push_back(std::move(*slot));
  co_return results;
}

// Set `event` after `delay`, from a detached process. The shared_ptr keeps
// the event alive even if every waiter has long since raced past it — the
// building block for deadline-vs-completion races (RpcSystem::call_within).
void arm_timeout(EventLoop& loop, std::shared_ptr<Event> event,
                 SimDuration delay);

}  // namespace imca::sim
