// Brick failure model (DESIGN.md §5f), unit level: crash/restart drops
// volatile state but never durable state; the (client_id, op_seq) replay
// window turns client at-least-once retries into exactly-once application;
// admission/io-queue/deadline shedding answers kBusy instead of queueing
// without bound; and CMCache brownout serves bounded-staleness cache hits
// while the brick is ejected.
//
// Note: gtest ASSERT_* macros use `return` and cannot appear inside a
// coroutine body, so the tests guard with EXPECT_* + early co_return.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/testbed.h"
#include "gluster/client.h"
#include "gluster/protocol.h"
#include "gluster/server.h"
#include "net/rpc.h"
#include "net/sim_context.h"
#include "sim/sync.h"

namespace imca {
namespace {

using gluster::FopReply;
using gluster::FopRequest;
using gluster::FopType;
using sim::EventLoop;
using sim::Task;

// One raw wire exchange from node 1 to the brick on node 0 — the envelope
// fields (client_id/op_seq/retry/ttl) exactly as given, no client policy.
Task<FopReply> send_raw(net::RpcSystem& rpc, FopRequest req) {
  ByteBuf wire = req.encode();
  auto raw = co_await rpc.call(1, 0, net::kPortGluster, std::move(wire));
  FopReply rep;
  if (!raw) {
    rep.errc = raw.error();
    co_return rep;
  }
  auto decoded = FopReply::decode(*raw);
  if (!decoded) {
    rep.errc = Errc::kProto;
    co_return rep;
  }
  co_return *decoded;
}

class ServerFaultTest : public ::testing::Test, public net::SimContext {
 public:  // coroutine lambdas reach in by reference
  ServerFaultTest() {
    fabric().add_node("server");
    fabric().add_node("client");
  }

  void build(gluster::GlusterServerParams sp = {},
             gluster::ProtocolClientParams cp = {}) {
    server_ = std::make_unique<gluster::GlusterServer>(rpc(), 0, sp);
    server_->start();
    client_ = std::make_unique<gluster::GlusterClient>(
        rpc(), 1, gluster::GlusterTopology{{0}}, cp);
  }

  std::unique_ptr<gluster::GlusterServer> server_;
  std::unique_ptr<gluster::GlusterClient> client_;
};

TEST_F(ServerFaultTest, CrashDropsVolatileStateRestartServesDurable) {
  build();
  run([](ServerFaultTest& t) -> Task<void> {
    auto& fs = *t.client_;
    auto f = co_await fs.create("/f");
    EXPECT_TRUE(f.has_value());
    if (!f) co_return;
    EXPECT_TRUE((co_await fs.write(*f, 0, to_buffer("hello world"))).has_value());
    EXPECT_GT(t.server_->device().cache().resident_pages(), 0u);

    t.server_->crash();
    EXPECT_FALSE(t.server_->up());
    // The page cache was process memory; the ObjectStore is the disk.
    EXPECT_EQ(t.server_->device().cache().resident_pages(), 0u);
    EXPECT_EQ(t.server_->object_store().file_count(), 1u);
    // Seed client policy: one attempt, and the dead brick refuses it.
    auto refused = co_await fs.stat("/f");
    EXPECT_FALSE(refused.has_value());
    if (!refused) { EXPECT_EQ(refused.error(), Errc::kConnRefused); }

    t.server_->restart();
    auto st = co_await fs.stat("/f");
    EXPECT_TRUE(st.has_value());
    if (st) { EXPECT_EQ(st->size, 11u); }
    auto r = co_await fs.read(*f, 0, 11);
    EXPECT_TRUE(r.has_value());
    if (r) { EXPECT_EQ(to_string(*r), "hello world"); }
  }(*this));
  const auto s = server_->stats();
  EXPECT_EQ(s.crashes, 1u);
  EXPECT_EQ(s.restarts, 1u);
}

TEST_F(ServerFaultTest, ScheduledCrashWindowRiddenOutByRetries) {
  gluster::ProtocolClientParams cp;
  cp.op_deadline = 400 * kMilli;
  cp.attempt_timeout = 40 * kMilli;
  cp.backoff_base = 1 * kMilli;
  cp.backoff_cap = 8 * kMilli;
  cp.eject_after = 3;
  cp.probe_interval = 5 * kMilli;
  build({}, cp);
  server_->schedule_crash(5 * kMilli, 25 * kMilli);

  run([](ServerFaultTest& t) -> Task<void> {
    auto& fs = *t.client_;
    auto f = co_await fs.create("/f");
    EXPECT_TRUE(f.has_value());
    if (!f) co_return;
    // Ten 1 KiB writes straddling the crash window [5ms, 25ms); the ones
    // landing in it must ride through on retries, exactly once each.
    for (std::uint64_t i = 0; i < 10; ++i) {
      const std::string chunk(1024, static_cast<char>('a' + i));
      auto w = co_await fs.write(*f, i * 1024, to_buffer(chunk));
      EXPECT_TRUE(w.has_value()) << "write " << i;
      if (w) { EXPECT_EQ(*w, 1024u); }
      co_await t.loop().sleep(3 * kMilli);
    }
    auto r = co_await fs.read(*f, 0, 10 * 1024);
    EXPECT_TRUE(r.has_value());
    if (!r) co_return;
    const std::string got = to_string(*r);
    EXPECT_EQ(got.size(), 10u * 1024u);
    if (got.size() != 10u * 1024u) co_return;
    for (std::uint64_t i = 0; i < 10; ++i) {
      EXPECT_EQ(got[i * 1024], static_cast<char>('a' + i)) << "chunk " << i;
      EXPECT_EQ(got[i * 1024 + 1023], static_cast<char>('a' + i));
    }
  }(*this));

  const auto s = server_->stats();
  EXPECT_EQ(s.crashes, 1u);
  EXPECT_EQ(s.restarts, 1u);
  EXPECT_EQ(s.duplicate_applies, 0u);
  const auto& pc = client_->protocol().stats();
  EXPECT_GT(pc.retries, 0u);  // the window really forced the retry machinery
}

TEST_F(ServerFaultTest, ReplayWindowAnswersWithoutReapplying) {
  build();
  run([](ServerFaultTest& t) -> Task<void> {
    FopRequest req;
    req.type = FopType::kCreate;
    req.path = "/dup";
    req.client_id = 7;
    req.op_seq = 1;
    auto first = co_await send_raw(t.rpc(), req);
    EXPECT_EQ(first.errc, Errc::kOk);

    // The retry re-sends the same (client_id, op_seq): the window answers
    // with the recorded kOk instead of re-running create (which would say
    // kExist — the classic non-idempotent-retry lie).
    req.retry = 1;
    auto replay = co_await send_raw(t.rpc(), req);
    EXPECT_EQ(replay.errc, Errc::kOk);

    // A genuinely new mutation against the same path sees the truth.
    req.op_seq = 2;
    req.retry = 0;
    auto fresh = co_await send_raw(t.rpc(), req);
    EXPECT_EQ(fresh.errc, Errc::kExist);
  }(*this));
  const auto s = server_->stats();
  EXPECT_EQ(s.replays_seen, 1u);
  EXPECT_EQ(s.replays_deduped, 1u);
  EXPECT_EQ(s.duplicate_applies, 0u);
}

// Sheds the first `shed_first` writes with kBusy after holding them for
// `hold` — the "slow original that finishes with kBusy" shape (a long stall
// below dispatch that then hits a shed io-threads queue). Nothing is applied
// on the shed path, so a later retry is NOT a duplicate.
class SlowShedXlator final : public gluster::Xlator {
 public:
  SlowShedXlator(EventLoop& loop, int shed_first, SimDuration hold)
      : loop_(loop), shed_left_(shed_first), hold_(hold) {}
  std::string_view name() const override { return "slow-shed"; }
  sim::Task<Expected<std::uint64_t>> write(std::string path,
                                           std::uint64_t offset,
                                           Buffer data) override {
    if (shed_left_ > 0) {
      --shed_left_;
      co_await loop_.sleep(hold_);
      co_return Errc::kBusy;
    }
    ++applies_;
    co_return co_await child_->write(path, offset, std::move(data));
  }
  int applies() const noexcept { return applies_; }

 private:
  EventLoop& loop_;
  int shed_left_;
  SimDuration hold_;
  int applies_ = 0;
};

TEST_F(ServerFaultTest, ParkedReplaysNeverDoubleApplyAfterShedOriginal) {
  // Two replays of the same mutation park on an original that is slow and
  // then sheds with kBusy (nothing applied, nothing recorded). Both wake on
  // the same event; only ONE of them may become the new original — the
  // other must park again on (or be answered by) that new original, never
  // dispatch concurrently with it.
  server_ = std::make_unique<gluster::GlusterServer>(rpc(), 0,
                                                     gluster::GlusterServerParams{});
  auto shed = std::make_unique<SlowShedXlator>(loop(), 1, 2 * kMilli);
  auto* shed_raw = shed.get();
  server_->push_translator(std::move(shed));
  server_->start();

  run([](ServerFaultTest& t) -> Task<void> {
    FopRequest create;
    create.type = FopType::kCreate;
    create.path = "/f";
    EXPECT_EQ((co_await send_raw(t.rpc(), create)).errc, Errc::kOk);

    std::vector<Errc> replay_errcs;
    std::vector<Task<void>> batch;
    // The original: held 2 ms inside dispatch, then shed with kBusy.
    batch.push_back([](ServerFaultTest& tt) -> Task<void> {
      FopRequest w;
      w.type = FopType::kWrite;
      w.path = "/f";
      w.client_id = 7;
      w.op_seq = 1;
      w.data = to_buffer("abcd");
      auto rep = co_await send_raw(tt.rpc(), w);
      EXPECT_EQ(rep.errc, Errc::kBusy);  // shed before applying anything
    }(t));
    // Two replays overtaking it; both park on the in-flight original.
    for (int i = 1; i <= 2; ++i) {
      batch.push_back([](ServerFaultTest& tt, int retry,
                         std::vector<Errc>& out) -> Task<void> {
        co_await tt.loop().sleep(static_cast<SimDuration>(retry) * 500 *
                                 kMicro);
        FopRequest w;
        w.type = FopType::kWrite;
        w.path = "/f";
        w.client_id = 7;
        w.op_seq = 1;
        w.retry = static_cast<std::uint8_t>(retry);
        w.data = to_buffer("abcd");
        auto rep = co_await send_raw(tt.rpc(), w);
        out.push_back(rep.errc);
        EXPECT_EQ(rep.errc, Errc::kOk);
        EXPECT_EQ(rep.count, 4u);
      }(t, i, replay_errcs));
    }
    co_await sim::when_all(t.loop(), std::move(batch));
    EXPECT_EQ(replay_errcs.size(), 2u);
  }(*this));

  // The mutation ran through the stack exactly once, by whichever replay
  // became the new original after the shed.
  EXPECT_EQ(shed_raw->applies(), 1);
  const auto s = server_->stats();
  EXPECT_EQ(s.duplicate_applies, 0u);
  EXPECT_GE(s.replays_parked, 2u);
  EXPECT_GE(s.replays_deduped, 1u);
}

TEST_F(ServerFaultTest, AdmissionBoundShedsInsteadOfQueueing) {
  gluster::GlusterServerParams sp;
  sp.admission_limit = 1;
  build(sp);
  run([](ServerFaultTest& t) -> Task<void> {
    FopRequest req;
    req.type = FopType::kCreate;
    req.path = "/a";
    (void)co_await send_raw(t.rpc(), req);
    // Cold metadata: the next stat occupies dispatch for a ~12 ms disk
    // access, so its concurrent twin finds the admission slot taken.
    t.server_->device().drop_caches();
    std::vector<Errc> out;
    std::vector<Task<void>> batch;
    for (int i = 0; i < 2; ++i) {
      batch.push_back(
          [](ServerFaultTest& tt, std::vector<Errc>& o) -> Task<void> {
            FopRequest s;
            s.type = FopType::kStat;
            s.path = "/a";
            o.push_back((co_await send_raw(tt.rpc(), s)).errc);
          }(t, out));
    }
    co_await sim::when_all(t.loop(), std::move(batch));
    EXPECT_EQ(out.size(), 2u);
    int ok = 0, busy = 0;
    for (Errc e : out) (e == Errc::kOk ? ok : busy)++;
    EXPECT_EQ(ok, 1);
    EXPECT_EQ(busy, 1);
  }(*this));
  EXPECT_EQ(server_->stats().sheds_admission, 1u);
}

TEST_F(ServerFaultTest, IoQueueBoundShedsTheOverflow) {
  gluster::GlusterServerParams sp;
  sp.io_threads = 1;
  sp.io_queue_limit = 1;
  build(sp);
  run([](ServerFaultTest& t) -> Task<void> {
    FopRequest req;
    req.type = FopType::kCreate;
    req.path = "/a";
    (void)co_await send_raw(t.rpc(), req);
    t.server_->device().drop_caches();
    // One io thread, one queue slot, three cold stats: serve one, queue
    // one, shed one.
    std::vector<Errc> out;
    std::vector<Task<void>> batch;
    for (int i = 0; i < 3; ++i) {
      batch.push_back(
          [](ServerFaultTest& tt, std::vector<Errc>& o) -> Task<void> {
            FopRequest s;
            s.type = FopType::kStat;
            s.path = "/a";
            o.push_back((co_await send_raw(tt.rpc(), s)).errc);
          }(t, out));
    }
    co_await sim::when_all(t.loop(), std::move(batch));
    EXPECT_EQ(out.size(), 3u);
    int ok = 0, busy = 0;
    for (Errc e : out) (e == Errc::kOk ? ok : busy)++;
    EXPECT_EQ(ok, 2);
    EXPECT_EQ(busy, 1);
  }(*this));
  EXPECT_EQ(server_->stats().sheds_io, 1u);
}

TEST_F(ServerFaultTest, ExpiredDeadlineBudgetIsShedBeforeDispatch) {
  build();
  run([](ServerFaultTest& t) -> Task<void> {
    FopRequest req;
    req.type = FopType::kStat;
    req.path = "/whatever";
    req.ttl = 1;  // 1 ns of budget: gone before dispatch CPU finishes
    auto rep = co_await send_raw(t.rpc(), req);
    EXPECT_EQ(rep.errc, Errc::kBusy);
  }(*this));
  EXPECT_EQ(server_->stats().sheds_expired, 1u);
}

// --- CMCache brownout: the full testbed, because it needs a warm MCD ---

TEST(ServerBrownout, CacheServesWithinBoundThenStepsAside) {
  cluster::GlusterTestbedConfig cfg;
  cfg.n_mcds = 1;
  cfg.smcache = true;
  cfg.imca.brownout_max_staleness = 100 * kMilli;
  // The attempt timeout must clear a ~12 ms cold-disk access or the healthy
  // warm-up ops would spuriously time out; the refusal probes after the
  // crash are wire-latency fast, so the dead stat still fails within one
  // deadline of probing.
  cfg.client.op_deadline = 60 * kMilli;
  cfg.client.attempt_timeout = 40 * kMilli;
  cfg.client.backoff_base = 1 * kMilli;
  cfg.client.backoff_cap = 4 * kMilli;
  cfg.client.eject_after = 1;
  cfg.client.probe_interval = 5 * kMilli;
  cluster::GlusterTestbed bed(cfg);

  bed.run([](cluster::GlusterTestbed& b) -> Task<void> {
    auto& fs = b.client(0);
    auto f = co_await fs.create("/warm");
    EXPECT_TRUE(f.has_value());
    if (!f) co_return;
    EXPECT_TRUE((co_await fs.write(*f, 0, to_buffer("cached bytes"))).has_value());
    EXPECT_TRUE((co_await fs.close(*f)).has_value());
    // First stat misses and SMCache publishes the attr to the MCD; the
    // second confirms the cache can answer on its own.
    EXPECT_TRUE((co_await fs.stat("/warm")).has_value());
    EXPECT_TRUE((co_await fs.stat("/warm")).has_value());

    b.server().crash();
    // Trip ejection with an op the cache cannot answer for us.
    auto dead = co_await fs.stat("/missing");
    EXPECT_FALSE(dead.has_value());
    EXPECT_TRUE(b.gluster_client(0).protocol().server_down());

    // Within the staleness bound: the MCD array answers for the dead brick.
    auto st = co_await fs.stat("/warm");
    EXPECT_TRUE(st.has_value());
    if (st) { EXPECT_EQ(st->size, 12u); }
    EXPECT_GE(b.cmcache(0).fault_stats().brownout_serves, 1u);

    // Past the bound: the cache steps aside and the outage is visible.
    co_await b.loop().sleep(200 * kMilli);
    auto stale = co_await fs.stat("/warm");
    EXPECT_FALSE(stale.has_value());
    EXPECT_GE(b.cmcache(0).fault_stats().brownout_stale_bypass, 1u);
  }(bed));
}

}  // namespace
}  // namespace imca
