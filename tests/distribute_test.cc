// cluster/distribute unit drills (DESIGN.md §5i): the fixed consistent-hash
// ring spreads a namespace over every subvolume, and the cross-brick rename
// crash window — when the destination brick dies mid-rename, the staged
// atomic-swap sequence leaves the replace target intact.
//
// Note: gtest ASSERT_* macros use `return` and cannot appear inside a
// coroutine body, so the tests guard with EXPECT_* + early co_return.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "gluster/distribute.h"
#include "gluster/protocol_client.h"
#include "gluster/server.h"
#include "net/rpc.h"
#include "net/sim_context.h"

namespace imca {
namespace {

using sim::EventLoop;
using sim::Task;

constexpr std::size_t kBricks = 4;
constexpr std::size_t kClientNode = kBricks;

// Crash `victim` the moment `watch`'s durable store changes shape — the
// first mutation a cross-brick rename lands on the destination brick. Sim
// time only advances at awaits, and every subsequent rename step costs at
// least one RPC roundtrip, so a 1 us poll observes the very first change.
Task<void> crash_on_first_mutation(EventLoop* loop,
                                   gluster::GlusterServer* watch,
                                   gluster::GlusterServer* victim,
                                   std::string sentinel) {
  const std::size_t n0 = watch->object_store().file_count();
  while (watch->object_store().file_count() == n0 &&
         watch->object_store().exists(sentinel)) {
    co_await loop->sleep(1);
  }
  victim->crash();
}

class DistributeTest : public ::testing::Test, public net::SimContext {
 public:  // coroutine lambdas reach in by reference
  DistributeTest() {
    for (std::size_t i = 0; i < kBricks; ++i) {
      fabric().add_node("brick" + std::to_string(i));
    }
    fabric().add_node("client");
    for (std::size_t i = 0; i < kBricks; ++i) {
      servers_.push_back(std::make_unique<gluster::GlusterServer>(
          rpc(), i, gluster::GlusterServerParams{}));
      servers_.back()->start();
    }
  }

  void build() {
    std::vector<std::unique_ptr<gluster::ProtocolClient>> subvols;
    for (std::size_t i = 0; i < kBricks; ++i) {
      subvols.push_back(std::make_unique<gluster::ProtocolClient>(
          rpc(), kClientNode, i));
    }
    dht_ = std::make_unique<gluster::DistributeXlator>(std::move(subvols));
  }

  std::vector<std::unique_ptr<gluster::GlusterServer>> servers_;
  std::unique_ptr<gluster::DistributeXlator> dht_;
};

TEST_F(DistributeTest, RingSpreadsNamespaceOverEverySubvolume) {
  build();
  // 128 vnodes per subvolume: a 120-file namespace lands on every one of
  // the four, and no subvolume takes more than half of it.
  std::map<std::size_t, std::size_t> per_subvol;
  for (std::size_t i = 0; i < 120; ++i) {
    ++per_subvol[dht_->subvol_of("/d/f" + std::to_string(i))];
  }
  EXPECT_EQ(per_subvol.size(), kBricks);
  for (const auto& [subvol, files] : per_subvol) {
    EXPECT_LT(subvol, kBricks);
    EXPECT_LT(files, 60u);
  }
}

// The crash-window regression: the run kills the destination brick at its
// first rename-driven mutation, so the rename fails mid-sequence. A rename
// that reports failure must leave the replace target either old or new,
// never destroyed.

TEST_F(DistributeTest, StagedRenameCrashWindowLeavesTargetIntact) {
  build();
  run([](DistributeTest& t) -> Task<void> {
    auto& dht = *t.dht_;
    const std::string from = "/r/src";
    std::string to;
    for (std::size_t i = 0;; ++i) {
      to = "/r/dst" + std::to_string(i);
      if (dht.subvol_of(to) != dht.subvol_of(from)) break;
    }
    EXPECT_TRUE((co_await dht.create(from, 0644)).has_value());
    EXPECT_TRUE((co_await dht.write(from, 0, to_buffer("payload"))).has_value());
    EXPECT_TRUE((co_await dht.create(to, 0644)).has_value());
    EXPECT_TRUE((co_await dht.write(to, 0, to_buffer("precious"))).has_value());

    gluster::GlusterServer* dst = t.servers_[dht.subvol_of(to)].get();
    t.loop().spawn(crash_on_first_mutation(&t.loop(), dst, dst, to));
    auto r = co_await dht.rename(from, to);
    EXPECT_FALSE(r.has_value());  // destination died mid-sequence

    dst->restart();
    // The staged sequence only touched a private stage name before the
    // crash; the failed rename left both names exactly as they were.
    auto kept = co_await dht.read(to, 0, 8);
    EXPECT_TRUE(kept.has_value());
    if (kept) { EXPECT_EQ(to_string(*kept), "precious"); }
    auto src = co_await dht.read(from, 0, 7);
    EXPECT_TRUE(src.has_value());
    if (src) { EXPECT_EQ(to_string(*src), "payload"); }
  }(*this));
  EXPECT_EQ(dht_->stats().cross_renames, 1u);
}

}  // namespace
}  // namespace imca
