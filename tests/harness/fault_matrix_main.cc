// Fault-matrix driver: the invariant harness (workload_harness.h) replayed
// under every fault plan of one matrix, for one seed.
//
//   imca_fault_matrix --matrix={mcd,server,brick,writeback} [--seed=N]
//                     [--shake=N]
//
// Each matrix is data: a base config, an op count, its fault plans (each a
// FaultPlan plus config overrides, an optional hand-built trace and the
// checks its run must pass), the checks every plan must pass, matrix-wide
// anti-vacuity tallies and the transcript columns. One loop runs them all.
// Exit 0 iff every plan replays with zero oracle mismatches, every check
// holds and every tally is non-zero — the tallies and the per-plan
// expectations prove the workload really exercised the failure machinery
// rather than passing vacuously.
//
// --shake=N picks the DES kernel's tie-shake seed (DESIGN.md §5k). Every
// plan also proves it reached its loop: a shaken run must have permuted at
// least one tie.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/parse.h"
#include "common/units.h"
#include "harness/workload_harness.h"

namespace {

using imca::kMilli;
using imca::SimDuration;
using imca::harness::Op;
using Cfg = imca::harness::ReplayConfig;
using Res = imca::harness::ReplayResult;

// An expectation of one run: the plan fails with `why` unless it holds.
struct Check {
  bool (*holds)(const Cfg&, const Res&);
  const char* why;
};

// Matrix-wide anti-vacuity: `count` summed over every plan must be > 0.
struct Tally {
  std::uint64_t (*count)(const Res&);
  const char* why;
};

// One transcript field, printed as ` label=value`; `ms` prints a
// nanosecond value as milliseconds with two decimals.
struct Column {
  const char* label;
  std::uint64_t (*value)(const Res&);
  bool ms = false;
};

struct Plan {
  const char* name;
  imca::net::FaultPlan faults = {};   // seeded from --seed at run time
  void (*tweak)(Cfg&) = nullptr;      // overrides of the matrix base
  std::vector<Op> (*trace)(std::uint64_t seed) = nullptr;  // null: generated
  std::vector<Check> expect = {};
};

struct Matrix {
  const char* name;
  std::size_t ops;
  Cfg base;
  int name_width;  // transcript column of the plan name
  std::vector<Column> columns;
  std::vector<Check> always;  // checked on every plan, before its own
  std::vector<Plan> plans;
  std::vector<Tally> tallies;
};

// --- building blocks shared by the matrices ---------------------------------

const Check kNoDuplicateApplies{
    [](const Cfg&, const Res& r) { return r.server.duplicate_applies == 0; },
    "duplicate_applies > 0 (a replayed mutation ran through a brick's stack "
    "twice)"};
const Check kBrickCrashed{
    [](const Cfg&, const Res& r) {
      return r.server.crashes > 0 && r.server.restarts > 0;
    },
    "plan expected the brick to crash and restart"};
const Check kClientRetried{
    [](const Cfg&, const Res& r) { return r.pc.retries > 0; },
    "brick crashed but the client never retried (vacuous pass)"};

// The shake seed reached the loop (checked on every plan, last).
const std::vector<Check> kKernelChecks = {
    {[](const Cfg& c, const Res& r) {
       return c.testbed.tie_shake == 0 || r.loop.tie_shaken > 0;
     },
     "--shake run never permuted a tie (the seed did not reach the loop)"},
};

constexpr Column kReadsChecked{
    "reads_checked", [](const Res& r) { return r.reads_checked; }};
constexpr Column kBytes{"bytes", [](const Res& r) { return r.bytes_checked; }};
constexpr Column kCrashes{"crashes",
                          [](const Res& r) { return r.server.crashes; }};
constexpr Column kRestarts{"restarts",
                           [](const Res& r) { return r.server.restarts; }};
constexpr Column kRetries{"retries", [](const Res& r) { return r.pc.retries; }};
constexpr Column kDeduped{
    "deduped", [](const Res& r) { return r.server.replays_deduped; }};
constexpr Column kDupApplies{
    "dup_applies", [](const Res& r) { return r.server.duplicate_applies; }};

// Every matrix arms MCD-tier failover: per-op deadlines, retries, ejection
// and periodic probe/rejoin. Without these the client would ride out every
// black-holed call on the transport's 200 ms give-up.
Cfg mcd_failover() {
  Cfg c;
  c.testbed.imca.mcd_op_timeout = 2 * kMilli;
  c.testbed.imca.mcd_retry_dead_interval = 10 * kMilli;
  return c;
}

// ... plus, where bricks die, file-server-tier failover: deadline + retry +
// replay. A cold disk access costs ~12 ms in this model, so the attempt
// timeout always sits above one access.
Cfg brick_failover(SimDuration op_deadline, SimDuration attempt_timeout,
                   SimDuration backoff_cap) {
  Cfg c = mcd_failover();
  c.testbed.client = {.op_deadline = op_deadline,
                      .attempt_timeout = attempt_timeout,
                      .backoff_base = 1 * kMilli,
                      .backoff_cap = backoff_cap,
                      .eject_after = 3,
                      .probe_interval = 5 * kMilli};
  return c;
}

// --- mcd: the paper's §4.4 claim (DESIGN.md §5d) -----------------------------
//
// MCD failures never change what a client reads. The crash-all plan must
// have degraded reads to the server path.
Matrix mcd_matrix() {
  const Check degraded{
      [](const Cfg&, const Res& r) { return r.cm_faults.degraded_reads > 0; },
      "expected degraded_reads > 0 (plan should have forced the server "
      "path)"};
  return {
      .name = "mcd",
      .ops = 160,
      .base = mcd_failover(),
      .name_width = 22,
      .columns =
          {kReadsChecked,
           kBytes,
           {"degraded_reads",
            [](const Res& r) { return r.cm_faults.degraded_reads; }},
           {"repairs_dropped",
            [](const Res& r) { return r.cm_faults.repairs_dropped; }},
           {"timeouts",
            [](const Res& r) {
              return r.cm_client.timeouts + r.sm_client.timeouts;
            }},
           {"ejections",
            [](const Res& r) {
              return r.cm_client.ejections + r.sm_client.ejections;
            }},
           {"rejoins",
            [](const Res& r) {
              return r.cm_client.rejoins + r.sm_client.rejoins;
            }}},
      .always = {},
      .plans =
          {{.name = "no-fault"},
           {.name = "crash-one-mcd",
            .faults = {.crashes = {{0, 2 * kMilli, 20 * kMilli}}}},
           {.name = "crash-all-mcds",
            .faults = {.crashes = {{0, 2 * kMilli, std::nullopt},
                                   {1, 2 * kMilli + kMilli / 2, std::nullopt},
                                   {2, 3 * kMilli, std::nullopt}}},
            .expect = {degraded}},
           {.name = "flaky-50pct-timeouts",
            .faults = {.spec = {.drop_reply = 0.5}}}},
      .tallies = {},
  };
}

// --- server: surviving the file server (DESIGN.md §5f) -----------------------
//
// No mutation is ever applied twice (the exactly-once contract of the
// (client_id, op_seq) replay window), no op overruns its deadline by more
// than one backoff step, and the crash and slow plans really crashed,
// retried and timed out. The brick stack buffers no write: every acked byte
// is on the ObjectStore before the ack, so "acked mutations survive any
// crash schedule" is provable.
Matrix server_matrix() {
  const Check within_deadline{
      [](const Cfg& c, const Res& r) {
        return r.pc.max_op_elapsed <=
               c.testbed.client.op_deadline + c.testbed.client.backoff_cap;
      },
      "max_op_elapsed exceeds op_deadline + one backoff step"};
  const Check timed_out{
      [](const Cfg&, const Res& r) { return r.pc.timeouts > 0; },
      "slow plan produced no attempt timeouts (vacuous pass)"};
  // The brick dies mid-workload and comes back 25 ms later; clients must
  // ride it out on retries + the replay window.
  const std::vector<imca::net::ServerCrashEvent> twice = {
      {5 * kMilli, {30 * kMilli}}, {80 * kMilli, {105 * kMilli}}};
  return {
      .name = "server",
      .ops = 120,
      .base = brick_failover(400 * kMilli, 40 * kMilli, 8 * kMilli),
      .name_width = 20,
      .columns = {kReadsChecked,
                  kBytes,
                  kCrashes,
                  kRestarts,
                  kRetries,
                  {"replays", [](const Res& r) { return r.pc.replays; }},
                  kDeduped,
                  kDupApplies,
                  {"timeouts", [](const Res& r) { return r.pc.timeouts; }},
                  {"sheds",
                   [](const Res& r) {
                     return r.server.sheds_admission + r.server.sheds_expired +
                            r.server.sheds_io;
                   }},
                  {"brownout",
                   [](const Res& r) { return r.cm_faults.brownout_serves; }},
                  {"max_op_ms", [](const Res& r) { return r.pc.max_op_elapsed; },
                   true}},
      .always = {kNoDuplicateApplies, within_deadline},
      .plans =
          {{.name = "no-fault"},
           {.name = "crash-during-write",
            .faults = {.server_crashes = twice},
            .expect = {kBrickCrashed, kClientRetried}},
           // A third of the brick's replies crawl in after the attempt
           // timeout: every such fop was APPLIED but looks failed — the
           // replay window's home turf. The deadline is widened so an
           // unlucky all-slow streak (p^k per op) cannot exhaust it.
           {.name = "slow-server",
            .faults = {.server_spec = {.slow_reply = 0.35,
                                       .slow_delay = 60 * kMilli}},
            .tweak =
                [](Cfg& c) {
                  c.testbed.client.op_deadline = 800 * kMilli;
                },
            .expect = {timed_out}},
           // Both tiers fail at once: MCDs crash while the brick crashes.
           {.name = "crash-both-tiers",
            .faults = {.crashes = {{0, 4 * kMilli, {40 * kMilli}},
                                   {2, 6 * kMilli, std::nullopt}},
                       .server_crashes = {{5 * kMilli, {30 * kMilli}}}},
            .expect = {kBrickCrashed, kClientRetried}}},
      .tallies = {{[](const Res& r) { return r.server.replays_deduped; },
                   "no replayed mutation was ever answered from the replay "
                   "window — the dedup machinery never ran"}},
  };
}

// --- brick: the replicated 2x3 grid (DESIGN.md §5i) --------------------------
//
// Two distribute groups of three AFR replicas (brick g*3 + r is group g,
// replica r). No mutation ever applies twice on any brick, and none ever
// fails quorum: every plan keeps a majority of each group alive, so a short
// write would mean the client gave up on a reachable majority. After the
// final heal sweep every replica of every live file is byte-identical to
// the oracle (the harness's grid epilogue). An acked byte is on the brick's
// ObjectStore before the ack.
//
// Unlike the single-brick server matrix, which rides out every crash window
// on retries alone, a replicated mount is SUPPOSED to give up on a dead
// minority quickly and commit on the survivors: the 60 ms deadline is
// shorter than every crash window, so the leg to the dead brick fails, the
// write commits 2/3, and the dirty copy is what self-heal exists for.

// Every brick of the grid restarts once, staggered so no two windows
// overlap: at every instant each group has at most one replica down.
std::vector<imca::net::ServerCrashEvent> rolling_restart() {
  std::vector<imca::net::ServerCrashEvent> crashes;
  for (std::size_t b = 0; b < 6; ++b) {
    const imca::SimTime at = (5 + 75 * b) * kMilli;
    crashes.push_back({at, {at + 70 * kMilli}, b});
  }
  return crashes;
}

Matrix brick_matrix() {
  const Check quorum_held{
      [](const Cfg&, const Res& r) {
        return r.replicate.quorum_short_writes == 0;
      },
      "quorum_short_writes > 0 (a mutation failed quorum although a "
      "majority stayed up)"};
  const Check noticed{
      [](const Cfg&, const Res& r) {
        return r.pc.retries > 0 || r.pc.fast_fails > 0;
      },
      "bricks crashed but no client connection ever noticed (vacuous pass)"};
  const Check healed{
      [](const Cfg&, const Res& r) { return r.replicate.heals_completed > 0; },
      "crash plan left nothing for self-heal (vacuous pass)"};
  const std::vector<Check> crash_heal = {kBrickCrashed, noticed, healed};
  Cfg base = brick_failover(60 * kMilli, 20 * kMilli, 4 * kMilli);
  base.testbed.n_bricks = 2;    // distribute groups
  base.testbed.n_replicas = 3;  // AFR replicas per group: quorum = 2
  return {
      .name = "brick",
      .ops = 120,
      .base = base,
      .name_width = 22,
      .columns =
          {kReadsChecked,
           {"replica_reads",
            [](const Res& r) { return r.replica_reads_checked; }},
           kBytes,
           kCrashes,
           kRestarts,
           kRetries,
           {"short_writes",
            [](const Res& r) { return r.replicate.quorum_short_writes; }},
           {"partial_acks",
            [](const Res& r) { return r.replicate.partial_acks; }},
           {"heals", [](const Res& r) { return r.replicate.heals_completed; }},
           {"heal_bytes",
            [](const Res& r) { return r.replicate.heal_bytes_copied; }},
           {"switches",
            [](const Res& r) { return r.replicate.read_child_switches; }},
           {"degraded",
            [](const Res& r) { return r.replicate.reads_degraded; }},
           kDeduped,
           kDupApplies},
      .always = {kNoDuplicateApplies, quorum_held},
      .plans =
          {{.name = "no-fault"},
           // One replica of group 0 dies twice; its siblings keep quorum
           // and each window leaves dirt for self-heal to copy back.
           {.name = "crash-one-replica",
            .faults = {.server_crashes = {{5 * kMilli, {75 * kMilli}, 1},
                                          {120 * kMilli, {190 * kMilli}, 1}}},
            .expect = crash_heal},
           // A quorum minority dies in EVERY group at once. Both groups
           // stay writable throughout.
           {.name = "crash-quorum-minority",
            .faults = {.server_crashes = {{5 * kMilli, {75 * kMilli}, 1},
                                          {5 * kMilli, {75 * kMilli}, 4}}},
            .expect = crash_heal},
           // Brick 0 dies and rejoins; while its heal is (potentially) in
           // flight, brick 1 of the same group dies too. Heal sources must
           // fail over and the epoch check must discard raced copies.
           {.name = "crash-during-heal",
            .faults = {.server_crashes = {{5 * kMilli, {75 * kMilli}, 0},
                                          {90 * kMilli, {160 * kMilli}, 1}}},
            .expect = crash_heal},
           {.name = "rolling-restart",
            .faults = {.server_crashes = rolling_restart()},
            .expect = crash_heal}},
      .tallies = {{[](const Res& r) { return r.replicate.heals_completed; },
                   "self-heal never completed a single (child, path) pair — "
                   "the heal machinery never ran"},
                  {[](const Res& r) { return r.replicate.read_child_switches; },
                   "the read child never switched — read failover never ran"}},
  };
}

// --- writeback: durable write-back into the MCD tier (DESIGN.md §5j) --------
//
// No flush ever applies twice (flushes travel the ordinary stack, so the
// replay window covers them like any write). While >= 1 dirty replica
// survives, every acked byte reaches the brick. The loss plan must lose
// something and ACCOUNT for it: lost extents, a ledger naming each path,
// degraded writes while the quorum was down — never a silent divergence.
// Writes must be absorbed and flushed in every plan, and the crash plans
// must have disturbed the write-back tier.

// Hand-built trace for dirty-quorum-loss. Generated traces drain almost
// every extent within microseconds (barrier ops are frequent and brick
// writes are cheap), so no fixed crash instant reliably catches dirty
// state across seeds. This trace pins the timeline instead: f0/f1/f2 go
// dirty at t ~ 0 and see NO barrier, while write+close+read rounds on f3
// advance the clock ~12 ms per round (each read is a cold brick read —
// SMCache is off and every write invalidates the read cache), carrying the
// run far past the crash instant with the three files provably dirty.
std::vector<Op> loss_trace(std::uint64_t seed) {
  std::vector<Op> t;
  const auto push = [&t, seed](Op::Kind kind, std::uint32_t file,
                               std::uint64_t offset, std::uint64_t length) {
    Op op;
    op.kind = kind;
    op.file = file;
    op.offset = offset;
    op.length = length;
    op.payload_seed = seed * 1000003 + t.size();
    t.push_back(op);
  };
  push(Op::Kind::kWrite, 0, 0, 8192);
  push(Op::Kind::kWrite, 1, 0, 8192);
  push(Op::Kind::kWrite, 2, 0, 4096);
  push(Op::Kind::kRead, 0, 0, 8192);  // read-your-writes through the overlay
  for (std::uint64_t i = 0; i < 14; ++i) {  // ~14 x 12 ms of clock
    push(Op::Kind::kWrite, 3, i * 4096, 4096);
    push(Op::Kind::kClose, 3, 0, 0);  // barrier: flushes f3 only
    push(Op::Kind::kRead, 3, i * 4096, 4096);
  }
  // Past the daemon restarts: absorption resumes, and the reads hit the
  // engineered divergence (tolerated iff the ledger names the path).
  push(Op::Kind::kWrite, 0, 0, 4096);
  push(Op::Kind::kRead, 1, 0, 8192);
  push(Op::Kind::kRead, 0, 0, 4096);
  return t;
}

Matrix writeback_matrix() {
  const Check absorbed{
      [](const Cfg&, const Res& r) { return r.wb.absorbed > 0; },
      "no write was ever absorbed (vacuous pass)"};
  const Check flushed{
      [](const Cfg&, const Res& r) { return r.wb.flushed_extents > 0; },
      "no dirty extent ever reached the brick (vacuous pass)"};
  const Check zero_loss{
      [](const Cfg&, const Res& r) {
        return r.wb.lost_extents == 0 && r.wb_lost.empty();
      },
      "lost extents with >= 1 dirty replica alive at every instant"};
  const Check disturbed{
      [](const Cfg&, const Res& r) {
        return r.wb.replica_drops + r.wb.degraded_writes + r.wb.rollbacks > 0;
      },
      "crash plan never disturbed the write-back tier (vacuous pass)"};
  Cfg base = brick_failover(400 * kMilli, 40 * kMilli, 8 * kMilli);
  // K = 2 dirty replicas, ack at 2 (the default closes the K > K_dirty
  // index-visibility window; see writeback.h).
  base.testbed.imca.writeback = true;
  base.testbed.imca.wb_replicas = 2;
  base.testbed.imca.wb_quorum = 2;
  return {
      .name = "writeback",
      .ops = 120,
      .base = base,
      .name_width = 28,
      .columns =
          {{"absorbed", [](const Res& r) { return r.wb.absorbed; }},
           {"flushed", [](const Res& r) { return r.wb.flushed_extents; }},
           {"lost", [](const Res& r) { return r.wb.lost_extents; }},
           {"degraded", [](const Res& r) { return r.wb.degraded_writes; }},
           {"drops", [](const Res& r) { return r.wb.replica_drops; }},
           {"rollbacks", [](const Res& r) { return r.wb.rollbacks; }},
           {"requeues", [](const Res& r) { return r.wb.flush_requeues; }},
           {"retries", [](const Res& r) { return r.wb.flush_retries; }},
           {"overlay_reads", [](const Res& r) { return r.wb.overlay_reads; }},
           {"tolerated",
            [](const Res& r) { return r.wb_tolerated_divergences; }},
           kDupApplies},
      .always = {kNoDuplicateApplies, absorbed, flushed},
      .plans =
          {{.name = "no-fault-writeback", .expect = {zero_loss}},
           // One daemon of the K = 2 replica pairs dies at a time, windows
           // far enough apart that the flusher drains between them.
           {.name = "crash-one-mcd-mid-flush",
            .faults = {.crashes = {{0, 5 * kMilli, {25 * kMilli}},
                                   {1, 80 * kMilli, {100 * kMilli}}}},
            .expect = {zero_loss, disturbed}},
           // The brick dies while an MCD holding dirty replicas dies,
           // flushes in flight on both sides; still >= 1 dirty replica.
           {.name = "crash-mcd-and-brick-mid-flush",
            .faults = {.crashes = {{0, 4 * kMilli, {40 * kMilli}},
                                   {2, 85 * kMilli, {110 * kMilli}}},
                       .server_crashes = {{5 * kMilli, {30 * kMilli}},
                                          {80 * kMilli, {105 * kMilli}}}},
            .expect = {zero_loss, disturbed, kBrickCrashed, kClientRetried}},
           // 2 daemons with K = 2, a coalescing window longer than the run
           // (only barriers drain) and the loss_trace() timeline; BOTH
           // daemons crash at 50/51 ms, so every dirty extent loses all its
           // replicas. The harness tolerates divergence on exactly the
           // paths the loss ledger names, with per-op whole-tree sweeps off
           // (they would thrash the drain) and SMCache off (it would
           // pre-warm the bank on every flush and erase the trace's clock).
           {.name = "dirty-quorum-loss",
            .faults = {.crashes = {{0, 50 * kMilli, {120 * kMilli}},
                                   {1, 51 * kMilli, {121 * kMilli}}}},
            .tweak =
                [](Cfg& c) {
                  c.testbed.n_mcds = 2;
                  c.testbed.smcache = false;
                  c.testbed.imca.wb_flush_delay = 10000 * kMilli;
                  c.tolerate_wb_loss = true;
                  c.verify_every_op = false;
                },
            .trace = loss_trace,
            .expect =
                {{[](const Cfg&, const Res& r) {
                    return r.wb.lost_extents > 0 && r.wb.lost_bytes > 0;
                  },
                  "quorum-loss plan lost nothing (vacuous pass)"},
                 // The ledger can hold FEWER entries than lost_extents (a
                 // rename replacing a lossy target prunes entries no reader
                 // can observe); empty with losses counted is the bug.
                 {[](const Cfg&, const Res& r) { return !r.wb_lost.empty(); },
                  "losses counted but the ledger names no path"},
                 {[](const Cfg&, const Res& r) {
                    return r.wb.degraded_writes > 0;
                  },
                  "no write degraded while the dirty quorum was down"},
                 disturbed}}},
      .tallies = {{[](const Res& r) { return r.wb.overlay_reads; },
                   "no read ever crossed the dirty overlay — "
                   "read-your-writes never ran"}},
  };
}

// --- the one loop -----------------------------------------------------------

int run(const Matrix& m, std::uint64_t seed, std::uint64_t shake) {
  int failures = 0;
  std::vector<Res> results;
  for (const Plan& plan : m.plans) {
    Cfg cfg = m.base;
    cfg.testbed.faults = plan.faults;
    cfg.testbed.faults.seed = seed;
    cfg.testbed.tie_shake = shake;
    if (plan.tweak != nullptr) plan.tweak(cfg);

    const Res res = plan.trace != nullptr
                        ? imca::harness::replay(plan.trace(seed), cfg)
                        : imca::harness::run_seeded(seed, m.ops, cfg);
    bool ok = res.ok;
    std::string why = res.detail;
    for (const auto* checks : {&m.always, &plan.expect, &kKernelChecks}) {
      for (const Check& c : *checks) {
        if (ok && !c.holds(cfg, res)) {
          ok = false;
          why = c.why;
        }
      }
    }

    std::printf("%-*s seed=%llu %s ", m.name_width, plan.name,
                static_cast<unsigned long long>(seed), ok ? "PASS" : "FAIL");
    for (const Column& col : m.columns) {
      if (col.ms) {
        std::printf(" %s=%.2f", col.label,
                    static_cast<double>(col.value(res)) / kMilli);
      } else {
        std::printf(" %s=%llu", col.label,
                    static_cast<unsigned long long>(col.value(res)));
      }
    }
    std::printf("\n");
    if (!ok) {
      std::fprintf(stderr, "  %s: %s\n", plan.name, why.c_str());
      ++failures;
    }
    results.push_back(res);
  }

  for (const Tally& t : m.tallies) {
    std::uint64_t total = 0;
    for (const Res& r : results) total += t.count(r);
    if (failures == 0 && total == 0) {
      std::fprintf(stderr, "matrix-wide: %s\n", t.why);
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Matrix> matrices = {mcd_matrix(), server_matrix(),
                                        brick_matrix(), writeback_matrix()};
  const Matrix* matrix = nullptr;
  std::uint64_t seed = 1;
  std::uint64_t shake = 0;
  bool bad = false;
  // Whether `a` is `prefix` plus a value; the value must be a whole number
  // or the command line is bad.
  const auto number = [&bad](const char* a, const char* prefix,
                             std::uint64_t& out) {
    const std::size_t n = std::strlen(prefix);
    if (std::strncmp(a, prefix, n) != 0) return false;
    if (const auto v = imca::parse_number<std::uint64_t>(a + n)) {
      out = *v;
    } else {
      std::fprintf(stderr, "%.*s wants a whole number, got '%s'\n",
                   static_cast<int>(n - 1), a, a + n);
      bad = true;
    }
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--matrix=", 9) == 0) {
      matrix = nullptr;
      for (const Matrix& m : matrices) {
        if (std::strcmp(a + 9, m.name) == 0) matrix = &m;
      }
      bad = bad || matrix == nullptr;
    } else if (!number(a, "--seed=", seed) && !number(a, "--shake=", shake)) {
      bad = true;
    }
  }
  if (bad || matrix == nullptr) {
    std::fprintf(stderr,
                 "usage: %s --matrix={mcd,server,brick,writeback} [--seed=N] "
                 "[--shake=N]\n",
                 argv[0]);
    return 2;
  }
  return run(*matrix, seed, shake);
}
