// cluster/replicate unit drills (DESIGN.md §5i): quorum commit with a dead
// minority, clean failure when the majority is gone, dirty children excluded
// from reads until self-heal copies them back to byte-equality, heal
// propagating unlinks, unanimous definite rejection surfacing as the child
// error instead of a quorum failure, and fsync reaching every replica
// through a distribute-over-replicate mount.
//
// Note: gtest ASSERT_* macros use `return` and cannot appear inside a
// coroutine body, so the tests guard with EXPECT_* + early co_return.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/testbed.h"
#include "gluster/protocol_client.h"
#include "gluster/replicate.h"
#include "gluster/server.h"
#include "net/rpc.h"
#include "net/sim_context.h"

namespace imca {
namespace {

using sim::Task;

constexpr std::size_t kReplicas = 3;

class ReplicateTest : public ::testing::Test, public net::SimContext {
 public:  // coroutine lambdas reach in by reference
  ReplicateTest() {
    for (std::size_t i = 0; i < kReplicas; ++i) {
      fabric().add_node("brick" + std::to_string(i));
    }
    fabric().add_node("client");
  }

  void build() {
    std::vector<std::unique_ptr<gluster::ProtocolClient>> conns;
    for (std::size_t i = 0; i < kReplicas; ++i) {
      servers_.push_back(
          std::make_unique<gluster::GlusterServer>(rpc(), i, server_params_));
      servers_.back()->start();
      conns.push_back(std::make_unique<gluster::ProtocolClient>(
          rpc(), kReplicas, i));  // client rides the last node
    }
    afr_ = std::make_unique<gluster::ReplicateXlator>(loop(), std::move(conns));
  }

  gluster::GlusterServerParams server_params_;
  std::vector<std::unique_ptr<gluster::GlusterServer>> servers_;
  std::unique_ptr<gluster::ReplicateXlator> afr_;
};

TEST_F(ReplicateTest, QuorumCommitsWithOneReplicaDown) {
  build();
  run([](ReplicateTest& t) -> Task<void> {
    auto& afr = *t.afr_;
    EXPECT_TRUE((co_await afr.create("/f", 0644)).has_value());
    EXPECT_TRUE((co_await afr.write("/f", 0, to_buffer("v1"))).has_value());

    t.servers_[2]->crash();
    auto w = co_await afr.write("/f", 0, to_buffer("v2"));
    EXPECT_TRUE(w.has_value());  // 2-of-3 is quorum

    EXPECT_TRUE(afr.fresh(0, "/f"));
    EXPECT_TRUE(afr.fresh(1, "/f"));
    EXPECT_FALSE(afr.fresh(2, "/f"));  // missed the committed write

    auto r = co_await afr.read("/f", 0, 2);
    EXPECT_TRUE(r.has_value());
    if (r) { EXPECT_EQ(to_string(*r), "v2"); }
  }(*this));
  EXPECT_GE(afr_->stats().partial_acks, 1u);
  EXPECT_EQ(afr_->stats().quorum_short_writes, 0u);
}

TEST_F(ReplicateTest, QuorumLostWithMajorityDownThenHealConverges) {
  build();
  run([](ReplicateTest& t) -> Task<void> {
    auto& afr = *t.afr_;
    EXPECT_TRUE((co_await afr.create("/f", 0644)).has_value());
    EXPECT_TRUE((co_await afr.write("/f", 0, to_buffer("old!"))).has_value());

    t.servers_[1]->crash();
    t.servers_[2]->crash();
    auto w = co_await afr.write("/f", 0, to_buffer("new!"));
    EXPECT_FALSE(w.has_value());  // 1-of-3 cannot commit
    EXPECT_EQ(afr.stats().quorum_short_writes, 1u);

    // The failed mutation still touched child 0; once the majority is back,
    // heal must converge all three copies to byte-equality again.
    t.servers_[1]->restart();
    t.servers_[2]->restart();
    const auto report = co_await afr.heal_all();
    EXPECT_EQ(report.remaining, 0u);
    std::string first;
    for (std::size_t i = 0; i < kReplicas; ++i) {
      EXPECT_TRUE(afr.fresh(i, "/f"));
      auto r = co_await afr.read_from(i, "/f", 0, 4);
      EXPECT_TRUE(r.has_value());
      if (!r) co_return;
      if (i == 0) {
        first = to_string(*r);
      } else {
        EXPECT_EQ(to_string(*r), first);
      }
    }
  }(*this));
}

TEST_F(ReplicateTest, DirtyChildExcludedUntilHealedByteIdentical) {
  build();
  run([](ReplicateTest& t) -> Task<void> {
    auto& afr = *t.afr_;
    EXPECT_TRUE((co_await afr.create("/f", 0644)).has_value());
    EXPECT_TRUE((co_await afr.write("/f", 0, to_buffer("aaaa"))).has_value());

    t.servers_[2]->crash();
    EXPECT_TRUE((co_await afr.write("/f", 0, to_buffer("bbbb"))).has_value());
    t.servers_[2]->restart();

    // The rejoined child still holds the stale bytes on disk...
    auto stale = co_await afr.read_from(2, "/f", 0, 4);
    EXPECT_TRUE(stale.has_value());
    if (stale) { EXPECT_EQ(to_string(*stale), "aaaa"); }
    // ...so reads must not touch it: every read serves the committed bytes.
    for (int i = 0; i < 8; ++i) {
      auto r = co_await afr.read("/f", 0, 4);
      EXPECT_TRUE(r.has_value());
      if (r) { EXPECT_EQ(to_string(*r), "bbbb"); }
    }

    const auto report = co_await afr.heal_all();
    EXPECT_GE(report.healed, 1u);
    EXPECT_EQ(report.remaining, 0u);
    EXPECT_TRUE(afr.fresh(2, "/f"));
    auto healed = co_await afr.read_from(2, "/f", 0, 4);
    EXPECT_TRUE(healed.has_value());
    if (healed) { EXPECT_EQ(to_string(*healed), "bbbb"); }
    auto st = co_await afr.stat_from(2, "/f");
    EXPECT_TRUE(st.has_value());
    if (st) { EXPECT_EQ(st->size, 4u); }
  }(*this));
  EXPECT_GE(afr_->stats().heals_completed, 1u);
  EXPECT_GT(afr_->stats().heal_bytes_copied, 0u);
}

TEST_F(ReplicateTest, HealPropagatesUnlinkToRejoinedChild) {
  build();
  run([](ReplicateTest& t) -> Task<void> {
    auto& afr = *t.afr_;
    EXPECT_TRUE((co_await afr.create("/g", 0644)).has_value());
    EXPECT_TRUE((co_await afr.write("/g", 0, to_buffer("doomed"))).has_value());

    t.servers_[2]->crash();
    EXPECT_TRUE((co_await afr.unlink("/g")).has_value());
    t.servers_[2]->restart();

    // The rejoined child still has the file; heal must delete, not copy.
    EXPECT_TRUE(t.servers_[2]->object_store().exists("/g"));
    const auto report = co_await afr.heal_all();
    EXPECT_GE(report.healed, 1u);
    EXPECT_EQ(report.remaining, 0u);
    auto st = co_await afr.stat_from(2, "/g");
    EXPECT_FALSE(st.has_value());
    if (!st) { EXPECT_EQ(st.error(), Errc::kNoEnt); }
  }(*this));
}

TEST_F(ReplicateTest, UnanimousRejectionIsChildErrorNotQuorumFailure) {
  build();
  run([](ReplicateTest& t) -> Task<void> {
    auto& afr = *t.afr_;
    auto u = co_await afr.unlink("/never-created");
    EXPECT_FALSE(u.has_value());
    if (!u) { EXPECT_EQ(u.error(), Errc::kNoEnt); }
  }(*this));
  // All three children definitively rejected: that is the answer, not a
  // replication failure, and no child was marked dirty by it.
  EXPECT_EQ(afr_->stats().quorum_short_writes, 0u);
  for (std::size_t i = 0; i < kReplicas; ++i) {
    EXPECT_EQ(afr_->dirty_paths(i), 0u);
  }
}

// fsync on a 2 x 2 grid: the barrier crosses distribute and replicate and
// reaches both replicas of the file's group as exactly one brick fop each.
TEST(GridFsync, ReachesEveryReplica) {
  cluster::GlusterTestbedConfig cfg;
  cfg.n_bricks = 2;
  cfg.n_replicas = 2;
  cluster::GlusterTestbed tb(cfg);
  const std::string path = "/sync/f";
  const std::size_t group = tb.gluster_client(0).group_of(path);
  tb.run([](cluster::GlusterTestbed& t, std::string p,
            std::size_t g) -> Task<void> {
    auto& fs = t.client(0);
    auto f = co_await fs.create(p);
    EXPECT_TRUE(f.has_value());
    if (!f) co_return;
    auto w = co_await fs.write(*f, 0, to_buffer("synced"));
    EXPECT_EQ(w.value_or(0), 6u);
    std::vector<std::uint64_t> before;
    for (std::size_t r = 0; r < 2; ++r) {
      before.push_back(t.brick(g * 2 + r).stats().fops);
    }
    EXPECT_TRUE((co_await fs.fsync(*f)).has_value());
    for (std::size_t r = 0; r < 2; ++r) {
      EXPECT_EQ(t.brick(g * 2 + r).stats().fops, before[r] + 1)
          << "replica " << r;
    }
  }(tb, path, group));
}

}  // namespace
}  // namespace imca
