// protocol/client: the terminal client-side translator. Encodes each fop,
// ships it to the brick over the fabric, and decodes the reply.
//
// Reliability (DESIGN.md §5f): with an op deadline configured, each fop is
// raced against a per-attempt timeout and retried with capped exponential
// backoff until the deadline budget runs out. Mutations are numbered
// (client_id, op_seq) once per op — every retry re-sends the same number,
// and the brick's replay window turns the client's at-least-once loop into
// exactly-once application. After `eject_after` consecutive failures the
// server is marked down; retries then wait for the probe interval instead
// of hammering a dead brick, and CMCache can consult the ServerHealth view
// to serve bounded-staleness cache hits meanwhile (brownout).
//
// With op_deadline == 0 (the default) behaviour is the seed's: one attempt,
// no timeout, no retry, no numbering side effects visible on the wire
// beyond the envelope fields.
#pragma once

#include "gluster/protocol.h"
#include "gluster/xlator.h"
#include "net/rpc.h"

namespace imca::gluster {

struct ProtocolClientParams {
  // Total budget per fop. 0 = seed behaviour (single attempt, wait forever).
  SimDuration op_deadline = 0;
  // Budget per attempt; each attempt is raced against min(this, remaining).
  // 0 = attempts get the whole remaining budget.
  SimDuration attempt_timeout = 10 * kMilli;
  SimDuration backoff_base = 1 * kMilli;  // doubles per retry, capped below
  SimDuration backoff_cap = 16 * kMilli;
  // Consecutive failed attempts before the server is considered down.
  std::size_t eject_after = 3;
  // While down, at most one probe attempt per this interval.
  SimDuration probe_interval = 10 * kMilli;
};

struct ProtocolClientStats {
  std::uint64_t fops = 0;      // roundtrip() calls, not attempts
  std::uint64_t retries = 0;   // attempts after the first
  std::uint64_t replays = 0;   // retries carrying a mutation op_seq
  std::uint64_t timeouts = 0;  // attempt outcomes, by class:
  std::uint64_t refusals = 0;
  std::uint64_t resets = 0;
  std::uint64_t torn = 0;       // undecodable / unexpected transport errors
  std::uint64_t sheds_seen = 0; // kBusy replies (brick shed the request)
  std::uint64_t deadline_exhausted = 0;  // ops that ran out of budget
  std::uint64_t fast_fails = 0;  // retry slots parked waiting for a probe
  std::uint64_t ejections = 0;
  std::uint64_t rejoins = 0;
  SimDuration max_op_elapsed = 0;  // worst roundtrip() wall time
};

class ProtocolClient final : public Xlator, public ServerHealth {
 public:
  ProtocolClient(net::RpcSystem& rpc, net::NodeId self, net::NodeId server,
                 ProtocolClientParams params = {})
      : rpc_(rpc), self_(self), server_(server), params_(params) {}

  sim::Task<Expected<store::Attr>> create(std::string path,
                                          std::uint32_t mode) override;
  sim::Task<Expected<store::Attr>> open(std::string path) override;
  sim::Task<Expected<void>> close(std::string path) override;
  sim::Task<Expected<store::Attr>> stat(std::string path) override;
  sim::Task<Expected<Buffer>> read(std::string path,
                                   std::uint64_t offset,
                                   std::uint64_t len) override;
  sim::Task<Expected<std::uint64_t>> write(std::string path,
                                           std::uint64_t offset,
                                           Buffer data) override;
  sim::Task<Expected<void>> unlink(std::string path) override;
  sim::Task<Expected<void>> truncate(std::string path,
                                     std::uint64_t size) override;
  sim::Task<Expected<void>> rename(std::string from,
                                   std::string to) override;
  // Idempotent barrier: not numbered (replaying a completed fsync is
  // harmless), retried like the read-shaped fops.
  sim::Task<Expected<void>> fsync(std::string path) override;

  std::string_view name() const override { return "protocol/client"; }

  // --- ServerHealth ---
  bool server_down() const override { return down_; }
  SimTime server_down_since() const override { return down_since_; }

  net::NodeId server() const noexcept { return server_; }
  const ProtocolClientStats& stats() const noexcept { return stats_; }

 private:
  // True for fops that change durable state and must apply exactly once.
  static bool mutation_fop(FopType t) noexcept {
    return t == FopType::kCreate || t == FopType::kWrite ||
           t == FopType::kUnlink || t == FopType::kTruncate ||
           t == FopType::kRename;
  }

  sim::EventLoop& loop() noexcept { return rpc_.fabric().loop(); }
  // A request of `type` on `path`; the fop fills in its other arguments.
  static FopRequest request(FopType type, std::string path);
  // The one body of every fop: roundtrip, then the reply's payload for T
  // (attr, data, count, or nothing for void).
  template <typename T>
  sim::Task<Expected<T>> call(FopRequest req);
  // Ship `req`, applying the deadline/retry/replay policy.
  sim::Task<Expected<FopReply>> roundtrip(FopRequest req);
  // One wire attempt, raced against `timeout` (0 = no timeout).
  sim::Task<Expected<FopReply>> attempt(FopRequest req, SimDuration timeout);
  void mark_alive();
  void note_failure();
  void note_elapsed(SimTime start);

  net::RpcSystem& rpc_;
  net::NodeId self_;
  net::NodeId server_;
  ProtocolClientParams params_;
  ProtocolClientStats stats_;
  std::uint64_t next_seq_ = 0;  // mutation numbering (client_id = self_)
  std::size_t fail_streak_ = 0;
  bool down_ = false;
  SimTime down_since_ = 0;
  SimTime next_probe_ = 0;
};

}  // namespace imca::gluster
