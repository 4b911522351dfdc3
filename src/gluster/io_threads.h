// performance/io-threads: bounds the number of fops concurrently inside the
// storage stack, like GlusterFS's io-threads translator (a pool of worker
// threads in the original; a counting semaphore on the simulated clock
// here). With many clients this is the server-side queue the paper's
// asynchronous request model drains.
//
// The queue in front of the pool is bounded (DESIGN.md §5f): with
// `queue_limit` set, an op arriving while every thread is busy and the
// queue is full is shed with kBusy (EAGAIN) instead of parking without
// limit — backpressure the client retry machinery absorbs, rather than a
// latency cliff nobody can see.
#pragma once

#include "gluster/xlator.h"
#include "sim/sync.h"

namespace imca::gluster {

class IoThreadsXlator final : public Xlator {
  // Semaphore acquire that keeps the parked-op count honest, so shed() has
  // a real queue depth to bound and peak_queue() is observable in tests.
  struct EnterAwaiter {
    IoThreadsXlator& x;
    decltype(std::declval<sim::Semaphore&>().acquire()) inner;
    bool parked = false;
    explicit EnterAwaiter(IoThreadsXlator& xx) noexcept
        : x(xx), inner(xx.sem_.acquire()) {}
    bool await_ready() {
      if (inner.await_ready()) return true;
      parked = true;
      ++x.queued_;
      if (x.queued_ > x.peak_queue_) x.peak_queue_ = x.queued_;
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) { inner.await_suspend(h); }
    void await_resume() noexcept {
      if (parked) --x.queued_;
    }
  };

 public:
  IoThreadsXlator(sim::EventLoop& loop, std::size_t threads = 16,
                  std::size_t queue_limit = 0)
      : sem_(loop, threads), queue_limit_(queue_limit) {}

  sim::Task<Expected<store::Attr>> create(std::string path,
                                          std::uint32_t mode) override {
    return wind(child_->create(std::move(path), mode));
  }
  sim::Task<Expected<store::Attr>> open(std::string path) override {
    return wind(child_->open(std::move(path)));
  }
  sim::Task<Expected<void>> close(std::string path) override {
    return wind(child_->close(std::move(path)));
  }
  sim::Task<Expected<store::Attr>> stat(std::string path) override {
    return wind(child_->stat(std::move(path)));
  }
  sim::Task<Expected<Buffer>> read(std::string path,
                                   std::uint64_t offset,
                                   std::uint64_t len) override {
    return wind(child_->read(std::move(path), offset, len));
  }
  sim::Task<Expected<std::uint64_t>> write(std::string path,
                                           std::uint64_t offset,
                                           Buffer data) override {
    return wind(child_->write(std::move(path), offset, std::move(data)));
  }
  sim::Task<Expected<void>> unlink(std::string path) override {
    return wind(child_->unlink(std::move(path)));
  }
  sim::Task<Expected<void>> truncate(std::string path,
                                     std::uint64_t size) override {
    return wind(child_->truncate(std::move(path), size));
  }
  sim::Task<Expected<void>> rename(std::string from,
                                   std::string to) override {
    return wind(child_->rename(std::move(from), std::move(to)));
  }
  sim::Task<Expected<void>> fsync(std::string path) override {
    return wind(child_->fsync(std::move(path)));
  }

  std::string_view name() const override { return "io-threads"; }

  std::uint64_t sheds() const noexcept { return sheds_; }
  std::uint64_t peak_queue() const noexcept { return peak_queue_; }
  std::size_t queued() const noexcept { return queued_; }

 private:
  // Admission check: with a bounded queue, a fop that would park behind
  // queue_limit_ already-parked fops is refused up front.
  bool shed() noexcept {
    if (queue_limit_ > 0 && sem_.available() == 0 && queued_ >= queue_limit_) {
      ++sheds_;
      return true;
    }
    return false;
  }

  EnterAwaiter enter() noexcept { return EnterAwaiter{*this}; }

  // Every fop's one path through the pool: shed, take a thread, run the
  // child's fop (lazy, so it starts only once a thread is held), and give
  // the thread back.
  template <typename T>
  sim::Task<T> wind(sim::Task<T> fop) {
    if (shed()) co_return Errc::kBusy;
    co_await enter();
    auto r = co_await std::move(fop);
    sem_.release();
    co_return r;
  }

  sim::Semaphore sem_;
  std::size_t queue_limit_;
  std::size_t queued_ = 0;
  std::uint64_t peak_queue_ = 0;
  std::uint64_t sheds_ = 0;
};

}  // namespace imca::gluster
