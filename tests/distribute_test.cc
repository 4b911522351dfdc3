// cluster/distribute unit drills (DESIGN.md §5i): consistent-hash ring
// stability under add_brick (~1/(N+1) of the namespace moves, not the ~N/(N+1)
// a `hash % N` ring would), remove_brick migrating exactly the removed
// subvolume's files, and the cross-brick rename crash window — the legacy
// unlink-before-create sequence destroys the replace target when the
// destination brick dies mid-rename, while the staged atomic-swap sequence
// leaves it intact.
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
#include "net/transport.h"

namespace imca {
namespace {

using sim::EventLoop;
using sim::Task;

constexpr std::size_t kBricks = 4;    // initial ring
constexpr std::size_t kSpare = 1;     // extra brick node for add_brick
constexpr std::size_t kClientNode = kBricks + kSpare;
constexpr std::size_t kFiles = 120;

std::string file_path(std::size_t i) {
  return "/d/f" + std::to_string(i);
}
std::string file_body(std::size_t i) {
  return "data-" + std::to_string(i);
}

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

class DistributeTest : public ::testing::Test {
 public:  // coroutine lambdas reach in by reference
  DistributeTest() : fabric_(loop_, net::ipoib_rc()), rpc_(fabric_) {
    for (std::size_t i = 0; i < kBricks + kSpare; ++i) {
      fabric_.add_node("brick" + std::to_string(i));
    }
    fabric_.add_node("client");
    for (std::size_t i = 0; i < kBricks + kSpare; ++i) {
      servers_.push_back(std::make_unique<gluster::GlusterServer>(
          rpc_, i, gluster::GlusterServerParams{}));
      servers_.back()->start();
    }
  }

  void build() {
    std::vector<std::unique_ptr<gluster::ProtocolClient>> subvols;
    for (std::size_t i = 0; i < kBricks; ++i) {
      subvols.push_back(std::make_unique<gluster::ProtocolClient>(
          rpc_, kClientNode, i));
    }
    dht_ = std::make_unique<gluster::DistributeXlator>(std::move(subvols));
  }

  std::unique_ptr<gluster::ProtocolClient> spare_conn() {
    return std::make_unique<gluster::ProtocolClient>(rpc_, kClientNode,
                                                     kBricks);
  }

  // Create the fixed file population and return each file's ring owner.
  Task<void> populate(std::map<std::size_t, std::size_t>* owners) {
    for (std::size_t i = 0; i < kFiles; ++i) {
      const std::string p = file_path(i);
      auto c = co_await dht_->create(p, 0644);
      EXPECT_TRUE(c.has_value());
      auto w = co_await dht_->write(p, 0, to_buffer(file_body(i)));
      EXPECT_TRUE(w.has_value());
      (*owners)[i] = dht_->subvol_of(p);
    }
  }

  Task<void> verify_all_readable() {
    for (std::size_t i = 0; i < kFiles; ++i) {
      const std::string body = file_body(i);
      auto r = co_await dht_->read(file_path(i), 0, body.size());
      EXPECT_TRUE(r.has_value());
      if (r) { EXPECT_EQ(to_string(*r), body); }
    }
  }

  void run(Task<void> t) {
    loop_.spawn(std::move(t));
    loop_.run();
  }

  EventLoop loop_;
  net::Fabric fabric_;
  net::RpcSystem rpc_;
  std::vector<std::unique_ptr<gluster::GlusterServer>> servers_;
  std::unique_ptr<gluster::DistributeXlator> dht_;
};

TEST_F(DistributeTest, AddBrickMovesRingFractionNotEverything) {
  build();
  std::map<std::size_t, std::size_t> owners;
  run([](DistributeTest& t, std::map<std::size_t, std::size_t>* owned)
          -> Task<void> {
    co_await t.populate(owned);
    // Every subvolume should own a share of a 120-file namespace.
    std::map<std::size_t, std::size_t> per_subvol;
    for (const auto& [i, s] : *owned) ++per_subvol[s];
    EXPECT_EQ(per_subvol.size(), kBricks);

    auto report = co_await t.dht_->add_brick(t.spare_conn());
    EXPECT_TRUE(report.has_value());
    if (!report) co_return;
    EXPECT_EQ(t.dht_->subvol_count(), kBricks + 1);

    // Consistent hashing: the newcomer takes ~1/(N+1) of the namespace
    // (24 of 120 in expectation). `hash % N` placement would reshuffle
    // ~N/(N+1) (~96). The midpoint separates the two regimes with a wide
    // margin for ring variance at 128 vnodes.
    std::size_t moved = 0;
    for (const auto& [i, s] : *owned) {
      if (t.dht_->subvol_of(file_path(i)) != s) ++moved;
    }
    EXPECT_GT(moved, 0u);
    EXPECT_LT(moved, kFiles / 2);
    EXPECT_EQ(report->moved, moved);
    EXPECT_EQ(t.dht_->stats().rebalanced_paths, moved);
    EXPECT_GT(report->bytes, 0u);

    co_await t.verify_all_readable();
  }(*this, &owners));
}

TEST_F(DistributeTest, RemoveBrickMigratesExactlyItsFiles) {
  build();
  std::map<std::size_t, std::size_t> owners;
  run([](DistributeTest& t, std::map<std::size_t, std::size_t>* owned)
          -> Task<void> {
    co_await t.populate(owned);
    std::size_t owned_by_0 = 0;
    for (const auto& [i, s] : *owned) {
      if (s == 0) ++owned_by_0;
    }
    EXPECT_GT(owned_by_0, 0u);

    auto report = co_await t.dht_->remove_brick(0);
    EXPECT_TRUE(report.has_value());
    if (!report) co_return;
    EXPECT_EQ(t.dht_->subvol_count(), kBricks - 1);
    EXPECT_EQ(report->moved, owned_by_0);

    co_await t.verify_all_readable();
  }(*this, &owners));
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
    t.loop_.spawn(crash_on_first_mutation(&t.loop_, dst, dst, to));
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
