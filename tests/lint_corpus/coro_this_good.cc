// IMCA-CORO-THIS good twin: the ReplicateXlator::heal_worker pattern — a
// liveness token (alive_) captured before the first suspension and checked
// after each one, so a destroyed owner is detected instead of dereferenced.
#include <cstdint>
#include <memory>

#include "sim/task.h"

namespace corpus {

struct Flusher {
  std::uint64_t dirty_ = 0;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  sim::Task<void> flush_loop() {
    auto alive = alive_;
    co_await suspend();
    if (!*alive) co_return;  // owner died while we were suspended
    dirty_ = 0;
  }

  // No suspension at all: `this` cannot go away mid-coroutine body before
  // the first co_await, so a leading member read is fine.
  sim::Task<std::uint64_t> peek() { co_return dirty_; }
};

}  // namespace corpus
