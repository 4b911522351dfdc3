// Deterministic fault injection for the simulated fabric (DESIGN.md §5d).
//
// A FaultInjector sits beside the RpcSystem and, for every call to a
// (node, port) it has a FaultSpec for, draws one fault decision from a
// seeded PRNG. The RpcSystem applies the decision:
//
//   * drop-request — the request crosses the wire and is lost before the
//     daemon parses it (no side effect on the peer); the caller's transport
//     only gives up after kFaultGiveUp, surfacing kTimedOut. Nothing ever
//     hangs forever: every black-holed call resolves in bounded simulated
//     time.
//   * drop-reply  — the daemon executes the request (side effects applied!)
//     but the reply is lost; the caller times out as above. This is the
//     "did my delete land?" ambiguity the client retry machinery must absorb.
//   * slow-reply  — the reply alone is delayed by `slow_delay`. Requests are
//     deliberately never delayed: a mutation either reaches the daemon
//     promptly or never, which keeps the writer's purge/publish ordering
//     argument (DESIGN.md §5d) free of in-flight-request races.
//   * short-read  — the reply is truncated to a strict prefix; the client's
//     protocol parser sees a torn response (kProto).
//
// Crash/restart faults are not drawn per call: they are scheduled windows on
// the simulated clock (`McServer::schedule_crash`), bundled with the
// probabilistic spec in a FaultPlan. A killed daemon stops listening and
// discards its contents, so callers observe a clean kConnRefused.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace imca::net {

using NodeId = std::uint32_t;  // matches net/node.h

// How long a black-holed call lingers before the caller's transport gives
// up with kTimedOut. Deliberately much larger than any sane per-op client
// deadline, so a client with timeouts sees its own deadline fire first and
// a client without them still terminates.
inline constexpr SimDuration kFaultGiveUp = 200 * kMilli;

enum class FaultKind : std::uint8_t {
  kNone,
  kDropRequest,
  kDropReply,
  kSlowReply,
  kShortRead,
};

// Per-target probabilities for one RPC. At most one fault fires per call,
// checked in declaration order.
struct FaultSpec {
  double drop_request = 0.0;
  double drop_reply = 0.0;
  double slow_reply = 0.0;
  double short_read = 0.0;
  // Reply delay for slow-reply faults.
  SimDuration slow_delay = 2 * kMilli;

  bool any() const noexcept {
    return drop_request > 0 || drop_reply > 0 || slow_reply > 0 ||
           short_read > 0;
  }
};

// One drawn decision, applied by RpcSystem::call.
struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  SimDuration slow_delay = 0;
  // Raw draw for the truncation point; the applier takes it modulo the
  // response size (the size is unknown at draw time).
  std::uint64_t cut_draw = 0;
};

// A deterministic kill (and optional restart) of one cache daemon,
// identified by its index in the deployment's MCD list.
struct CrashEvent {
  std::size_t mcd = 0;
  SimTime at = 0;
  std::optional<SimTime> restart_at;
};

// A deterministic kill (and optional restart) of the GlusterFS brick
// itself (DESIGN.md §5f). A crashed brick stops listening and drops its
// volatile state (the page cache); the ObjectStore — the disk — survives
// and is what a restart comes back up with.
struct ServerCrashEvent {
  SimTime at = 0;
  std::optional<SimTime> restart_at;
  // Which brick dies, as an index into the deployment's brick grid
  // (row-major: group g, replica r at g*replicas + r). 0 — the only brick —
  // for classic single-server deployments.
  std::size_t brick = 0;
};

// Everything a deployment needs to run under faults: the seed for the
// per-call draws, probabilistic wire specs (one applied to every MCD, one
// to the brick's GlusterFS port), and the scheduled crash windows on both
// tiers.
struct FaultPlan {
  std::uint64_t seed = 1;
  FaultSpec spec = {};  // MCD array wire faults
  std::vector<CrashEvent> crashes = {};
  // File-server tier (DESIGN.md §5f): wire faults on port 24007 — the
  // slow-server / lossy-server drills — plus brick crash windows.
  FaultSpec server_spec = {};
  std::vector<ServerCrashEvent> server_crashes = {};

  bool active() const noexcept {
    return spec.any() || !crashes.empty() || server_spec.any() ||
           !server_crashes.empty();
  }
};

class FaultInjector {
 public:
  struct Stats {
    std::uint64_t drops_request = 0;
    std::uint64_t drops_reply = 0;
    std::uint64_t slow_replies = 0;
    std::uint64_t short_reads = 0;
    std::uint64_t clean_calls = 0;  // calls a spec covered but left alone
  };

  explicit FaultInjector(std::uint64_t seed) : rng_(seed) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void set_spec(NodeId node, std::uint16_t port, FaultSpec spec) {
    specs_[{node, port}] = spec;
  }
  void clear_spec(NodeId node, std::uint16_t port) {
    specs_.erase({node, port});
  }

  // Draw the fault decision for one call. Consumes PRNG state only when a
  // spec covers the target, so adding an uncovered service to a deployment
  // does not perturb the fault sequence.
  FaultDecision decide(NodeId node, std::uint16_t port);

  const Stats& stats() const noexcept { return stats_; }

 private:
  Rng rng_;
  std::map<std::pair<NodeId, std::uint16_t>, FaultSpec> specs_;
  Stats stats_;
};

}  // namespace imca::net
