// Heap allocations on IMCa's steady-state message path.
//
// Frames come from the thread's FramePool and a segment is one block, so a
// warm op allocates only what its strings, view lists and message header
// blocks need. This binary replaces the
// global operator new with a counting one and pins, per op kind, the count
// of one warm op on a 2-MCD IMCa testbed. The run is deterministic, so each
// budget is the exact count; a change that puts an allocation back on the
// path fails here. The counts assume the pool is live, so the test skips
// where frames bypass it (AddressSanitizer builds).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "cluster/testbed.h"
#include "common/buffer.h"
#include "sim/task.h"

namespace {

std::uint64_t g_news = 0;
bool g_counting = false;

}  // namespace

void* operator new(std::size_t n) {
  if (g_counting) ++g_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace imca {
namespace {

constexpr const char* kPath = "/budget/file";
constexpr std::uint64_t kBlock = 2 * kKiB;

struct OpCounts {
  std::uint64_t stat = 0;
  std::uint64_t read = 0;
  std::uint64_t write = 0;
};

Buffer block_of(unsigned salt) {
  std::vector<std::byte> v(kBlock);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::byte>((i * 7 + salt) & 0xFF);
  }
  return Buffer::take(std::move(v));
}

void begin_count() {
  g_news = 0;
  g_counting = true;
}

std::uint64_t end_count() {
  g_counting = false;
  return g_news;
}

// Lets the background work an op started (SMCache publishes, read-repair)
// finish inside its count.
sim::Task<void> settle(cluster::GlusterTestbed& t) {
  co_await t.quiesce_smcaches();
  co_await t.loop().sleep(1 * kMilli);
}

sim::Task<void> stat_hit(fsapi::FileSystemClient& c) {
  auto a = co_await c.stat(kPath);
  EXPECT_TRUE(a.has_value());
}

sim::Task<void> block_read(fsapi::FileSystemClient& c, fsapi::OpenFile f) {
  auto r = co_await c.read(f, 0, kBlock);
  EXPECT_TRUE(r.has_value() && r->size() == kBlock);
}

sim::Task<void> block_write(fsapi::FileSystemClient& c, fsapi::OpenFile f,
                            unsigned salt) {
  auto w = co_await c.write(f, 0, block_of(salt));
  EXPECT_TRUE(w.has_value());
}

// Rounds of stat, block read and block write on one file; the last round's
// counts. Earlier rounds warm the frame pool, the daemons' tables and every
// container's capacity.
OpCounts measure(cluster::GlusterTestbed& tb) {
  OpCounts out;
  tb.run([](cluster::GlusterTestbed& t, OpCounts& res) -> sim::Task<void> {
    fsapi::FileSystemClient& c = t.client(0);
    auto f = co_await c.create(kPath);
    EXPECT_TRUE(f.has_value());
    if (!f) co_return;
    (void)co_await c.write(*f, 0, block_of(0));
    co_await t.quiesce_smcaches();
    for (unsigned round = 1; round <= 4; ++round) {
      begin_count();
      co_await stat_hit(c);
      co_await settle(t);
      res.stat = end_count();
      begin_count();
      co_await block_read(c, *f);
      co_await settle(t);
      res.read = end_count();
      begin_count();
      co_await block_write(c, *f, round);
      co_await settle(t);
      res.write = end_count();
    }
  }(tb, out));
  return out;
}

TEST(AllocBudget, WarmOpsStayWithinTheirAllocationCounts) {
  if (!sim::detail::FramePool::kPooled) {
    GTEST_SKIP() << "frames bypass the pool under AddressSanitizer";
  }
  cluster::GlusterTestbedConfig cfg;
  cfg.n_clients = 1;
  cfg.n_mcds = 2;
  cfg.imca.block_size = kBlock;
  cluster::GlusterTestbed tb(cfg);
  const core::CmCacheStats before = tb.cmcache(0).stats();
  const OpCounts n = measure(tb);
  const core::CmCacheStats after = tb.cmcache(0).stats();
  // Anti-vacuity: the stats and reads really were cache hits.
  EXPECT_GE(after.stat_hits - before.stat_hits, 4u);
  EXPECT_GE(after.reads_from_cache - before.reads_from_cache, 4u);

  // Before frames were pooled and segments were one block, the same ops
  // took 31 (stat), 58 (read) and 108 (write); before a message's trailer
  // shared its header's block and its view list was sized once, 10, 33
  // and 40.
  EXPECT_LE(n.stat, 7u) << "stat hit";
  EXPECT_LE(n.read, 30u) << "2 KiB block-read hit";
  EXPECT_LE(n.write, 31u) << "2 KiB write";
}

}  // namespace
}  // namespace imca
