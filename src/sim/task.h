// Lazy coroutine task type for simulated processes.
//
// Every activity in the simulator — a client issuing a read, the GlusterFS
// server translator stack, a memcached daemon servicing a request — is a
// `Task<T>` coroutine. Tasks are *lazy*: creating one does nothing until it
// is either `co_await`ed (which chains it to the awaiting coroutine via
// symmetric transfer) or handed to `EventLoop::spawn` (which runs it as an
// independent simulated process).
//
// The kernel is strictly single-threaded: "parallelism" between simulated
// nodes is interleaving on the simulated clock, so no atomics or locks are
// needed and every run is deterministic.
//
// Frames come from the thread's FramePool, not from malloc: a fop runs a
// dozen short-lived coroutines (DESIGN.md §5h).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>
#include <utility>
#include <variant>

namespace imca::sim {

template <typename T>
class Task;

namespace detail {

// Recycler for coroutine frames, a LIFO free list per size class: a freed
// frame goes on the free list of its 64 B size class, and the next frame of
// that class takes the most recently freed, cache-hot block. Frames above
// kMaxBytes go straight to the global allocator.
//
//   * The lists are thread_local, not per loop: a frame can outlive the loop
//     that ran it (a caller-owned Task destroyed after its testbed), and one
//     pool per thread keeps testbeds on different threads apart with no
//     lock. A frame freed on another thread joins that thread's list.
//   * The pool never shrinks: peak frame concurrency bounds it. Blocks
//     still listed when a thread exits are not freed, so a thread that
//     comes and goes keeps its peak until the process ends.
//   * Under AddressSanitizer every frame comes from and returns to the
//     global allocator. LIFO reuse would hand a destroyed frame's memory to
//     the next coroutine and hide a resume-after-destroy that ASan's
//     quarantine reports.
class FramePool {
 public:
  static constexpr std::size_t kGrain = 64;
  static constexpr std::size_t kMaxBytes = 2048;
#if defined(__SANITIZE_ADDRESS__)
  static constexpr bool kPooled = false;
#else
  static constexpr bool kPooled = true;
#endif

  static void* allocate(std::size_t n) {
    if (!kPooled || n > kMaxBytes) return ::operator new(n);
    Lists& l = lists_;
    Block*& head = l.free[size_class(n)];
    if (Block* b = head) {
      head = b->next;
      ++l.reuse;
      return b;
    }
    return fresh(n);
  }

  static void deallocate(void* p, std::size_t n) noexcept {
    if (!kPooled || n > kMaxBytes) {
      ::operator delete(p);
      return;
    }
    Block*& head = lists_.free[size_class(n)];
    head = ::new (p) Block{head};
  }

  // This thread's frames served from a free list, and blocks taken from the
  // global allocator (the latter plateaus once the pool is warm).
  static std::uint64_t reuse() noexcept { return lists_.reuse; }
  static std::uint64_t fresh_blocks() noexcept { return lists_.fresh; }

 private:
  struct Block {
    Block* next;
  };
  struct Lists {
    Block* free[kMaxBytes / kGrain];
    std::uint64_t reuse;
    std::uint64_t fresh;
  };

  static std::size_t size_class(std::size_t n) noexcept {
    return (n - 1) / kGrain;
  }
  static void* fresh(std::size_t n) {
    ++lists_.fresh;
    return ::operator new((size_class(n) + 1) * kGrain);
  }

  // Constant-initialized and trivially destructible: no guard on access, and
  // it stays usable while statics destroy their frames at exit.
  static inline thread_local constinit Lists lists_{};
};

template <typename T>
class TaskPromise;

// Final awaiter: when a task finishes, control transfers directly to the
// coroutine that awaited it (or parks if it was spawned detached).
template <typename Promise>
struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    auto continuation = h.promise().continuation();
    return continuation ? continuation : std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

template <typename T>
class TaskPromiseBase {
 public:
  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    FramePool::deallocate(p, n);
  }

  std::suspend_always initial_suspend() const noexcept { return {}; }
  FinalAwaiter<TaskPromise<T>> final_suspend() const noexcept { return {}; }

  void set_continuation(std::coroutine_handle<> c) noexcept {
    continuation_ = c;
  }
  std::coroutine_handle<> continuation() const noexcept {
    return continuation_;
  }

 private:
  std::coroutine_handle<> continuation_;
};

template <typename T>
class TaskPromise final : public TaskPromiseBase<T> {
 public:
  Task<T> get_return_object() noexcept;

  template <typename U>
  void return_value(U&& value) {
    result_.template emplace<1>(std::forward<U>(value));
  }
  void unhandled_exception() noexcept {
    result_.template emplace<2>(std::current_exception());
  }

  T take_result() {
    if (result_.index() == 2) {
      std::rethrow_exception(std::get<2>(std::move(result_)));
    }
    assert(result_.index() == 1 && "task awaited before completion");
    return std::get<1>(std::move(result_));
  }

 private:
  std::variant<std::monostate, T, std::exception_ptr> result_;
};

template <>
class TaskPromise<void> final : public TaskPromiseBase<void> {
 public:
  Task<void> get_return_object() noexcept;

  void return_void() const noexcept {}
  void unhandled_exception() noexcept { error_ = std::current_exception(); }

  void take_result() {
    if (error_) std::rethrow_exception(std::move(error_));
  }

 private:
  std::exception_ptr error_;
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::TaskPromise<T>;

  Task() noexcept = default;
  explicit Task(std::coroutine_handle<promise_type> h) noexcept : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const noexcept { return static_cast<bool>(handle_); }

  // Awaiting a task starts it; the awaiting coroutine resumes when the task
  // completes, receiving its result (or rethrowing its exception).
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiting) noexcept {
        handle.promise().set_continuation(awaiting);
        return handle;  // symmetric transfer: run the task body now
      }
      T await_resume() { return handle.promise().take_result(); }
    };
    return Awaiter{handle_};
  }

  // Used by EventLoop::spawn, which takes over lifetime management.
  std::coroutine_handle<promise_type> release() noexcept {
    return std::exchange(handle_, {});
  }

  // Non-owning view of the frame, for EventLoop::start (caller-owned
  // background tasks). The Task keeps ownership; destroying it destroys the
  // frame at its current suspension point.
  std::coroutine_handle<promise_type> handle() const noexcept {
    return handle_;
  }

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

namespace detail {

template <typename T>
Task<T> TaskPromise<T>::get_return_object() noexcept {
  return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void> TaskPromise<void>::get_return_object() noexcept {
  return Task<void>(
      std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace imca::sim
