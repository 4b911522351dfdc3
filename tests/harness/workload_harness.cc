#include "harness/workload_harness.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <optional>

#include "common/bytebuf.h"
#include "common/errc.h"
#include "common/rng.h"
#include "harness/shrink.h"

namespace imca::harness {

namespace {

constexpr std::uint32_t kFiles = 4;
// Offsets/lengths sized so files span a handful of 2 KiB IMCa blocks:
// enough to exercise partial hits, stale-EOF purges and multi-daemon
// placement without making every replay expensive.
constexpr std::uint64_t kMaxOffset = 12 * 1024;
constexpr std::uint64_t kMaxIo = 5 * 1024;

std::string path_of(std::uint32_t i) { return "/h/f" + std::to_string(i); }

struct ReplayState {
  // nullopt = file does not exist. The string is the oracle contents.
  std::array<std::optional<std::string>, kFiles> oracle;
  // Kept-open handle per live file. Files stay open across ops (except
  // around unlink and after an explicit kClose) so verification reads do not
  // trigger SMCache's purge-on-open and wipe the cache under test.
  std::array<std::optional<fsapi::OpenFile>, kFiles> handle;
};

// `check` names what disagreed ("verify read", "stat", "replica read", ...);
// the shrinker keeps a candidate trace only if it fails the same check.
void fail(ReplayResult& res, std::string check, std::string detail) {
  res.ok = false;
  res.check = std::move(check);
  res.detail = std::move(detail);
}

std::string describe_bytes(const std::string& expected,
                           const std::string& got) {
  std::size_t first = 0;
  const std::size_t common = std::min(expected.size(), got.size());
  while (first < common && expected[first] == got[first]) ++first;
  return "expected " + std::to_string(expected.size()) + "B, got " +
         std::to_string(got.size()) + "B, first divergence at byte " +
         std::to_string(first);
}

// Open `file` (keeping the handle) if it exists but has no handle.
sim::Task<void> ensure_open(fsapi::FileSystemClient& fs, ReplayState& st,
                            std::uint32_t file, ReplayResult& res) {
  if (!st.oracle[file] || st.handle[file]) co_return;
  auto h = co_await fs.open(path_of(file));
  if (!h) {
    fail(res, "open",
         "open(" + path_of(file) + ") failed: " +
             std::string(errc_name(h.error())));
    co_return;
  }
  st.handle[file] = *h;
}

// The invariant proper: every live file's stat size and full contents, read
// through the CMCache stack, must byte-match the oracle. `losses` (null =
// strict) is the write-back tier's accounted-loss ledger: a file may diverge
// only if an acked extent on that exact path was recorded lost — divergence
// with no matching ledger entry is a correctness bug either way.
sim::Task<void> verify_all(fsapi::FileSystemClient& fs, ReplayState& st,
                           ReplayResult& res,
                           const std::vector<core::WbLostExtent>* losses) {
  for (std::uint32_t f = 0; f < kFiles; ++f) {
    if (!st.oracle[f]) continue;
    const std::string& expect = *st.oracle[f];
    const std::string path = path_of(f);
    const bool lossy =
        losses != nullptr &&
        std::any_of(losses->begin(), losses->end(),
                    [&](const core::WbLostExtent& l) { return l.path == path; });

    auto attr = co_await fs.stat(path);
    if (!attr) {
      fail(res, "stat",
           "stat(" + path + ") failed: " +
               std::string(errc_name(attr.error())));
      co_return;
    }
    if (attr->size != expect.size() && !lossy) {
      fail(res, "stat",
           "stat(" + path + ") size " + std::to_string(attr->size) +
               " != oracle " + std::to_string(expect.size()));
      co_return;
    }

    co_await ensure_open(fs, st, f, res);
    if (!res.ok) co_return;
    // Read past the oracle size too: a cached stale block beyond EOF would
    // otherwise go unnoticed until the file grows back over it.
    auto got = co_await fs.read(*st.handle[f], 0, expect.size() + 64);
    if (!got) {
      fail(res, "verify read",
           "verify read(" + path + ") failed: " +
               std::string(errc_name(got.error())));
      co_return;
    }
    const std::string got_s = to_string(*got);
    ++res.reads_checked;
    res.bytes_checked += got_s.size();
    if (got_s != expect) {
      if (lossy) {
        ++res.wb_tolerated_divergences;
        continue;
      }
      fail(res, "verify read",
           "verify read(" + path + "): " + describe_bytes(expect, got_s));
      co_return;
    }
  }
}

// A mid-trace divergence may be a genuine, accounted write-back loss whose
// discovery the flusher has not reached yet (losses surface when a flush
// finds every dirty replica gone): drain the tier, then consult the loss
// ledger. true = this exact path has an accounted loss, so the divergence
// is the loss the plan engineered, not a correctness bug.
sim::Task<bool> path_lost(cluster::GlusterTestbed* bed, std::string path) {
  co_await bed->sync_writebacks();
  for (const auto& l : bed->writeback_losses()) {
    if (l.path == path) co_return true;
  }
  co_return false;
}

sim::Task<void> apply_op(cluster::GlusterTestbed& bed,
                         fsapi::FileSystemClient& fs, ReplayState& st, Op op,
                         ReplayResult& res, bool tolerate_wb_loss) {
  const std::uint32_t f = op.file % kFiles;
  switch (op.kind) {
    case Op::Kind::kWrite: {
      if (!st.oracle[f]) {
        auto h = co_await fs.create(path_of(f));
        if (!h) {
          fail(res, "create",
               "create(" + path_of(f) + ") failed: " +
                   std::string(errc_name(h.error())));
          co_return;
        }
        st.oracle[f] = std::string();
        st.handle[f] = *h;
      }
      co_await ensure_open(fs, st, f, res);
      if (!res.ok) co_return;
      const auto data = payload_bytes(op.payload_seed, op.length);
      auto wrote = co_await fs.write(*st.handle[f], op.offset, data);
      if (!wrote) {
        fail(res, "write",
             "write(" + path_of(f) + ") failed: " +
                 std::string(errc_name(wrote.error())));
        co_return;
      }
      if (*wrote != op.length) {
        fail(res, "write",
             "write(" + path_of(f) + ") short: " + std::to_string(*wrote) +
                 " of " + std::to_string(op.length));
        co_return;
      }
      auto& s = *st.oracle[f];
      if (s.size() < op.offset + op.length) {
        s.resize(op.offset + op.length, '\0');  // holes read back as zeros
      }
      s.replace(op.offset, op.length, to_string(data));
      co_return;
    }
    case Op::Kind::kRead: {
      if (!st.oracle[f]) co_return;  // nothing to read; ops adapt to state
      co_await ensure_open(fs, st, f, res);
      if (!res.ok) co_return;
      auto got = co_await fs.read(*st.handle[f], op.offset, op.length);
      if (!got) {
        fail(res, "read",
             "read(" + path_of(f) + ") failed: " +
                 std::string(errc_name(got.error())));
        co_return;
      }
      const std::string& oracle = *st.oracle[f];
      std::string expect;
      if (op.offset < oracle.size()) {
        expect = oracle.substr(
            op.offset, std::min<std::uint64_t>(op.length,
                                               oracle.size() - op.offset));
      }
      const std::string got_s = to_string(*got);
      ++res.reads_checked;
      res.bytes_checked += got_s.size();
      if (got_s != expect) {
        if (tolerate_wb_loss && co_await path_lost(&bed, path_of(f))) {
          ++res.wb_tolerated_divergences;
          co_return;
        }
        fail(res, "read",
             "read(" + path_of(f) + " @" + std::to_string(op.offset) + "+" +
                 std::to_string(op.length) + "): " +
                 describe_bytes(expect, got_s));
      }
      co_return;
    }
    case Op::Kind::kStat: {
      if (!st.oracle[f]) co_return;
      auto attr = co_await fs.stat(path_of(f));
      if (!attr) {
        fail(res, "stat",
             "stat(" + path_of(f) + ") failed: " +
                 std::string(errc_name(attr.error())));
      } else if (attr->size != st.oracle[f]->size()) {
        if (tolerate_wb_loss && co_await path_lost(&bed, path_of(f))) {
          ++res.wb_tolerated_divergences;
          co_return;
        }
        fail(res, "stat",
             "stat(" + path_of(f) + ") size " + std::to_string(attr->size) +
                 " != oracle " + std::to_string(st.oracle[f]->size()));
      }
      co_return;
    }
    case Op::Kind::kTruncate: {
      if (!st.oracle[f]) co_return;
      auto r = co_await fs.truncate(path_of(f), op.length);
      if (!r) {
        fail(res, "truncate",
             "truncate(" + path_of(f) + ") failed: " +
                 std::string(errc_name(r.error())));
        co_return;
      }
      st.oracle[f]->resize(op.length, '\0');
      co_return;
    }
    case Op::Kind::kUnlink: {
      if (!st.oracle[f]) co_return;
      if (st.handle[f]) {
        (void)co_await fs.close(*st.handle[f]);
        st.handle[f].reset();
      }
      auto r = co_await fs.unlink(path_of(f));
      if (!r) {
        fail(res, "unlink",
             "unlink(" + path_of(f) + ") failed: " +
                 std::string(errc_name(r.error())));
        co_return;
      }
      st.oracle[f].reset();
      co_return;
    }
    case Op::Kind::kRename: {
      const std::uint32_t t = op.target % kFiles;
      if (!st.oracle[f] || t == f) co_return;
      if (st.handle[t]) {
        // The replaced target's handle goes stale; drop it first.
        (void)co_await fs.close(*st.handle[t]);
        st.handle[t].reset();
      }
      auto r = co_await fs.rename(path_of(f), path_of(t));
      if (!r) {
        fail(res, "rename",
             "rename(" + path_of(f) + "->" + path_of(t) + ") failed: " +
                 std::string(errc_name(r.error())));
        co_return;
      }
      st.oracle[t] = std::move(st.oracle[f]);
      st.oracle[f].reset();
      st.handle[t] = st.handle[f];  // open handles follow the file
      st.handle[f].reset();
      co_return;
    }
    case Op::Kind::kClose: {
      if (!st.handle[f]) co_return;
      (void)co_await fs.close(*st.handle[f]);
      st.handle[f].reset();
      co_return;
    }
    case Op::Kind::kReopen: {
      co_await ensure_open(fs, st, f, res);
      co_return;
    }
  }
}

// Grid-mode epilogue: drive self-heal to convergence, then prove every
// replica of every file byte-identical to the oracle (and deleted files
// gone from every replica). This is the "kill any brick" guarantee: after
// heal there is no observer — not even one reading a single brick directly —
// that can see a quorum-acked write missing or stale bytes.
sim::Task<void> verify_replicas(cluster::GlusterTestbed& bed, ReplayState& st,
                                ReplayResult& res) {
  gluster::GlusterClient& gc = bed.gluster_client(0);
  res.heal = co_await gc.heal_all();
  if (res.heal.remaining != 0) {
    fail(res, "heal",
         "heal_all left " + std::to_string(res.heal.remaining) +
             " dirty (child, path) pairs with no reachable fresh source");
    co_return;
  }
  for (std::uint32_t f = 0; f < kFiles; ++f) {
    const std::string path = path_of(f);
    gluster::ReplicateXlator* rep = gc.replica_group(gc.group_of(path));
    if (rep == nullptr) co_return;  // replicas == 1: nothing extra to prove
    for (std::size_t i = 0; i < rep->replica_count(); ++i) {
      auto attr = co_await rep->stat_from(i, path);
      if (!st.oracle[f]) {
        if (attr.has_value() || attr.error() != Errc::kNoEnt) {
          fail(res, "replica stat",
               "replica " + std::to_string(i) + " still serves deleted " +
                   path);
          co_return;
        }
        continue;
      }
      const std::string& expect = *st.oracle[f];
      if (!attr) {
        fail(res, "replica stat",
             "replica " + std::to_string(i) + " stat(" + path + ") failed: " +
                 std::string(errc_name(attr.error())));
        co_return;
      }
      if (attr->size != expect.size()) {
        fail(res, "replica stat",
             "replica " + std::to_string(i) + " stat(" + path + ") size " +
                 std::to_string(attr->size) + " != oracle " +
                 std::to_string(expect.size()));
        co_return;
      }
      auto got = co_await rep->read_from(i, path, 0, expect.size() + 64);
      if (!got) {
        fail(res, "replica read",
             "replica " + std::to_string(i) + " read(" + path + ") failed: " +
                 std::string(errc_name(got.error())));
        co_return;
      }
      const std::string got_s = to_string(*got);
      ++res.replica_reads_checked;
      res.bytes_checked += got_s.size();
      if (got_s != expect) {
        fail(res, "replica read",
             "replica " + std::to_string(i) + " of " + path +
                 " diverges after heal: " + describe_bytes(expect, got_s));
        co_return;
      }
    }
  }
}

sim::Task<void> replay_body(cluster::GlusterTestbed& bed,
                            std::vector<Op> trace,
                            ReplayConfig cfg, ReplayResult& res) {
  fsapi::FileSystemClient& fs = bed.client(0);
  ReplayState st;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    co_await apply_op(bed, fs, st, trace[i], res, cfg.tolerate_wb_loss);
    if (res.ok && cfg.verify_every_op) {
      // Threaded SMCaches publish asynchronously; settle before checking.
      // Write-back extents deliberately stay dirty: the per-op check reads
      // THROUGH the overlay, proving read-your-writes before any flush.
      co_await bed.quiesce_smcaches();
      co_await verify_all(fs, st, res, nullptr);
    }
    if (!res.ok) {
      res.failed_op = i;
      co_return;
    }
  }
  // Final sweep: drain the write-back tier first — replica verification
  // reads bricks directly, beneath the overlay. Losses recorded during the
  // drain feed the (optionally tolerant) byte-check below.
  co_await bed.sync_writebacks();
  co_await bed.quiesce_smcaches();
  const std::vector<core::WbLostExtent> losses = bed.writeback_losses();
  co_await verify_all(fs, st, res,
                      cfg.tolerate_wb_loss ? &losses : nullptr);
  if (res.ok && cfg.testbed.n_replicas > 1) {
    co_await verify_replicas(bed, st, res);
  }
  if (!res.ok) res.failed_op = trace.size();
}

}  // namespace

Buffer payload_bytes(std::uint64_t payload_seed, std::uint64_t n) {
  Rng rng(payload_seed);
  std::vector<std::byte> data;
  data.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    data.push_back(static_cast<std::byte>(rng.below(256)));
  }
  return Buffer::take(std::move(data));
}

std::vector<Op> generate_ops(std::uint64_t seed, std::size_t n_ops) {
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(n_ops);
  for (std::size_t i = 0; i < n_ops; ++i) {
    Op op;
    op.file = static_cast<std::uint32_t>(rng.below(kFiles));
    const std::uint64_t roll = rng.below(100);
    if (roll < 30) {
      op.kind = Op::Kind::kWrite;
      op.offset = rng.below(kMaxOffset);
      op.length = 1 + rng.below(kMaxIo);
      op.payload_seed = rng.next();
    } else if (roll < 60) {
      op.kind = Op::Kind::kRead;
      op.offset = rng.below(kMaxOffset + kMaxIo);
      op.length = 1 + rng.below(kMaxIo);
    } else if (roll < 70) {
      op.kind = Op::Kind::kStat;
    } else if (roll < 77) {
      op.kind = Op::Kind::kTruncate;
      op.length = rng.below(kMaxOffset + kMaxIo);
    } else if (roll < 82) {
      op.kind = Op::Kind::kUnlink;
    } else if (roll < 87) {
      op.kind = Op::Kind::kRename;
      op.target = static_cast<std::uint32_t>(rng.below(kFiles));
    } else if (roll < 92) {
      op.kind = Op::Kind::kClose;
    } else {
      op.kind = Op::Kind::kReopen;
    }
    ops.push_back(op);
  }
  return ops;
}

ReplayResult replay(const std::vector<Op>& trace, const ReplayConfig& cfg) {
  cluster::GlusterTestbed bed(cfg.testbed);

  ReplayResult res;
  bed.run(replay_body(bed, trace, cfg, res));

  res.loop = bed.loop().stats();
  res.server = bed.server_totals();
  gluster::GlusterClient& gc = bed.gluster_client(0);
  res.pc = gc.protocol_totals();
  res.replicate = gc.replicate_totals();
  if (gc.distribute() != nullptr) res.distribute = gc.distribute()->stats();
  if (bed.imca_enabled()) {
    res.cm = bed.cmcache(0).stats();
    res.cm_faults = bed.cmcache(0).fault_stats();
    res.cm_client = bed.cmcache(0).mcds().stats();
    if (bed.smcache() != nullptr) {
      res.sm = bed.smcache()->stats();
      res.sm_client = bed.smcache()->mcds().stats();
    }
    res.wb = bed.writeback_totals();
    res.wb_lost = bed.writeback_losses();
  }
  return res;
}

ReplayResult run_seeded(std::uint64_t seed, std::size_t n_ops,
                        const ReplayConfig& cfg) {
  const auto trace = generate_ops(seed, n_ops);
  ReplayResult res = replay(trace, cfg);
  if (res.ok) return res;

  // Reproduce-then-shrink: a candidate survives only if it fails the way
  // the original did — the same check, at an op of the same kind or in the
  // final sweep — so the trace printed is a trace of THIS failure. Total
  // replays are bounded so a pathological failure can't stall the suite.
  const auto same_failure = [&](const std::vector<Op>& candidate,
                                const ReplayResult& r) {
    if (r.ok || r.check != res.check) return false;
    const bool in_sweep = res.failed_op == trace.size();
    if (r.failed_op == candidate.size()) return in_sweep;
    return !in_sweep &&
           candidate[r.failed_op].kind == trace[res.failed_op].kind;
  };
  ReplayResult shrunk = res;
  std::size_t budget = 200;
  const auto minimized =
      shrink_trace(trace, [&](const std::vector<Op>& candidate) {
        if (budget == 0) return false;
        --budget;
        ReplayResult r = replay(candidate, cfg);
        if (!same_failure(candidate, r)) return false;
        shrunk = std::move(r);
        return true;
      });

  std::fprintf(stderr,
               "workload harness FAILED: seed=%llu failed_op=%llu: %s\n",
               static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(res.failed_op),
               res.detail.c_str());
  std::fprintf(stderr,
               "minimized trace (%llu ops), fails at op %llu: %s\n%s\n",
               static_cast<unsigned long long>(minimized.size()),
               static_cast<unsigned long long>(shrunk.failed_op),
               shrunk.detail.c_str(), format_trace(minimized).c_str());
  return res;
}

std::string format_op(const Op& op) {
  const std::string f = "f" + std::to_string(op.file % kFiles);
  switch (op.kind) {
    case Op::Kind::kWrite:
      return "W " + f + " @" + std::to_string(op.offset) + "+" +
             std::to_string(op.length) + " seed=" +
             std::to_string(op.payload_seed);
    case Op::Kind::kRead:
      return "R " + f + " @" + std::to_string(op.offset) + "+" +
             std::to_string(op.length);
    case Op::Kind::kStat:
      return "S " + f;
    case Op::Kind::kTruncate:
      return "T " + f + " ->" + std::to_string(op.length);
    case Op::Kind::kUnlink:
      return "U " + f;
    case Op::Kind::kRename:
      return "M " + f + "->f" + std::to_string(op.target % kFiles);
    case Op::Kind::kClose:
      return "C " + f;
    case Op::Kind::kReopen:
      return "O " + f;
  }
  return "?";
}

std::string format_trace(const std::vector<Op>& trace) {
  std::string out;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    out += "  [" + std::to_string(i) + "] " + format_op(trace[i]) + "\n";
  }
  return out;
}

}  // namespace imca::harness
