// Invariant-checking workload harness (the executable form of the paper's
// §4.4 claim: MCD failures never affect correctness).
//
// A harness run generates a randomized open/read/write/truncate/unlink/
// rename workload from a seed, replays it against a fresh GlusterTestbed
// (IMCa translators + MCD array) under a FaultPlan, mirrors every mutation
// into an in-memory oracle, and checks after every op that reads served
// through CMCache byte-match the oracle. Any divergence is a correctness
// bug, not a performance artifact: caches may *lose* data under faults, but
// must never serve wrong bytes.
//
// Every op is interpreted against the state the previous ops produced (a
// write to a missing file creates it; a read of a missing file is a no-op),
// so ANY subsequence of a trace is itself a valid trace — the property the
// ddmin shrinker in shrink.h relies on. On failure, run_seeded() prints the
// seed and a minimized trace as a reproducible one-liner.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/testbed.h"
#include "imca/cmcache.h"
#include "imca/config.h"
#include "imca/smcache.h"
#include "mcclient/client.h"
#include "net/fault.h"

namespace imca::harness {

struct Op {
  enum class Kind : std::uint8_t {
    kWrite,     // write `length` seeded bytes at `offset` (creates the file)
    kRead,      // read [offset, offset+length) and byte-check vs the oracle
    kStat,      // stat and check the size vs the oracle
    kTruncate,  // truncate to `length`
    kUnlink,    // remove the file
    kRename,    // rename file -> target (replacing target)
    kClose,     // close the kept-open handle
    kReopen,    // reopen a file whose handle was closed
  };
  Kind kind = Kind::kWrite;
  std::uint32_t file = 0;    // index into the harness's fixed path set
  std::uint32_t target = 0;  // rename destination index
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t payload_seed = 0;  // deterministic write contents
};

struct ReplayConfig {
  ReplayConfig() { testbed.n_mcds = 3; }

  // The testbed the trace replays on (3 MCDs unless set otherwise); the
  // harness drives client 0. With n_replicas > 1 the final sweep
  // additionally drives self-heal to convergence and byte-checks EVERY
  // replica of every file against the oracle (deleted files must be kNoEnt
  // on every replica) — so grid fault plans must restart what they crash,
  // or the sweep rightly fails. Brick crash drills set server.write_behind
  // + flush_before_ack so an acked byte is always durable — the mode under
  // which "acked mutations survive any crash schedule" is provable.
  cluster::GlusterTestbedConfig testbed;
  // Byte-check every live file after every op (the invariant proper). Off =
  // only the read ops and the final sweep check.
  bool verify_every_op = true;
  // Write-back loss tolerance (DESIGN.md §5j): when a fault plan kills every
  // replica of a dirty extent, the bytes are genuinely gone and the final
  // sweep would rightly diverge from the oracle. With this set, a file's
  // divergence is tolerated if — and only if — the write-back tier recorded
  // an accounted loss on that exact path; divergence anywhere else still
  // fails. Leave false (the default) to prove the zero-loss invariant.
  bool tolerate_wb_loss = false;
};

struct ReplayResult {
  bool ok = true;
  std::size_t failed_op = 0;  // index into the trace (== trace size for the
                              // final sweep)
  std::string detail;         // human-readable mismatch description
  std::uint64_t reads_checked = 0;
  std::uint64_t bytes_checked = 0;
  // Post-run counter snapshots for accounting assertions.
  core::CmCacheStats cm;
  core::FaultStats cm_faults;
  mcclient::ClientStats cm_client;
  core::SmCacheStats sm;
  mcclient::ClientStats sm_client;
  // Grid-wide aggregates (server and pc sum over every brick / connection).
  gluster::GlusterServerStats server;
  gluster::ProtocolClientStats pc;
  gluster::ReplicateStats replicate;    // summed over replicate groups
  gluster::DistributeStats distribute;  // zero on single-group mounts
  gluster::HealReport heal;             // final heal_all sweep (grid mode)
  std::uint64_t replica_reads_checked = 0;  // per-replica byte checks
  // Write-back tier aggregates (all clients; zero when write-back is off).
  core::WritebackStats wb;
  std::vector<core::WbLostExtent> wb_lost;  // accounted losses, per path
  std::uint64_t wb_tolerated_divergences = 0;  // files excused by a loss
  // The DES kernel's counters: proof that the queue and shake settings
  // reached the loop (cascades > 0 only on the wheel, tie_shaken > 0 only
  // under a shake seed).
  sim::EventLoopStats loop;
};

// Deterministic payload for a write op: `n` bytes drawn from `payload_seed`.
Buffer payload_bytes(std::uint64_t payload_seed, std::uint64_t n);

// Draw `n_ops` ops from `seed`.
std::vector<Op> generate_ops(std::uint64_t seed, std::size_t n_ops);

// Replay `trace` on a fresh testbed under `cfg`. Deterministic: same trace +
// same config => same result, bit for bit.
ReplayResult replay(const std::vector<Op>& trace, const ReplayConfig& cfg);

// generate + replay; on failure, shrink the trace (bounded replay budget)
// and print `seed`, the failing op and the minimized trace to stderr.
ReplayResult run_seeded(std::uint64_t seed, std::size_t n_ops,
                        const ReplayConfig& cfg);

std::string format_op(const Op& op);
std::string format_trace(const std::vector<Op>& trace);

}  // namespace imca::harness
