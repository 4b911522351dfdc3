// IMCA-STAT-RMW corpus — the PR 8 flush-accounting drift, reduced: a stats
// counter is read into a local, the frame suspends, and the counter is
// written back from the stale local. Every update another coroutine made
// during the suspension is silently erased; under shaken resume order
// (EventLoop's tie_shake seed) the final count changes run to run.
#include <cstdint>

#include "sim/task.h"

namespace corpus {

struct FlushStats {
  std::uint64_t flushed_total_ = 0;

  sim::Task<std::uint64_t> fetch();  // real coroutine: may suspend

  sim::Task<void> record_flush() {
    const std::uint64_t seen = flushed_total_;
    const std::uint64_t n = co_await fetch();
    flushed_total_ = seen + n;  // EXPECT: IMCA-STAT-RMW
  }
};

}  // namespace corpus
