// Deployment knobs for the IMCa layer — the ablation axes of DESIGN.md §5.
#pragma once

#include <cstdint>
#include <memory>

#include "common/units.h"
#include "mcclient/client.h"
#include "mcclient/selector.h"
#include "net/transport.h"

namespace imca::core {

enum class HashScheme {
  kCrc32,       // libmemcache default (every experiment except Fig 9)
  kModulo,      // static modulo / round-robin over block index (Fig 9)
  kConsistent,  // the paper's future-work hashing direction
};

struct ImcaConfig {
  // Fixed cache block size (paper evaluates 256 B, 2 KB, 8 KB; 2 KB is the
  // default used for "the remaining experiments", §5.3).
  std::uint64_t block_size = 2 * kKiB;

  // Key -> MCD placement.
  HashScheme hash = HashScheme::kCrc32;

  // SMCache update mode: false = updates (and the write read-back) happen in
  // the fop path; true = a worker offloads them ("Using an additional
  // thread ... can reduce the cost", §4.3.2).
  bool threaded_updates = false;

  // The brick running this SMCache is one replica of an AFR-style group
  // (DESIGN.md §5i). A replica may be stale — it can miss committed writes
  // while down — so its write hook must not publish anything derived from
  // its local disk. Instead it publishes only the blocks fully covered by
  // the write's own payload (byte-identical on every replica that applied
  // the write) and *invalidates* edge blocks and the stat item, leaving a
  // read through a fresh replica to repopulate them. false = the paper's
  // single-brick protocol: read the aligned region back and republish it
  // wholesale (§4.3.2), which is only safe when this brick is the sole
  // authority for the file.
  bool replica_bricks = false;

  // --- miss-path handling (DESIGN.md "Miss-path handling") ---

  // Assemble partial hits: when some covering blocks hit and some miss,
  // fetch only the missing byte ranges from the server and splice them with
  // the cached blocks. false = the paper's behaviour, where any miss
  // discards the hits and forwards the whole read — the §4.4 penalty that
  // makes a cold read cost more than plain GlusterFS.
  bool partial_hit_reads = true;

  // Reach the cache bank over native IB verbs/RDMA instead of TCP over
  // IPoIB — the paper's future work: "how network mechanisms like Remote
  // Direct Memory Access (RDMA) in InfiniBand can help reduce the overhead
  // of the cache bank" (§7). Only the client<->MCD and server<->MCD paths
  // change; GlusterFS traffic stays on the fabric default.
  bool rdma_cache_path = false;

  // --- MCD failover (DESIGN.md §5d "Failure model") ---

  // Per-attempt MCD deadline. 0 disables the whole failover machinery (no
  // deadline race, no retries, no rejoin probes) — the seed behaviour, where
  // only clean refusals mark a daemon dead. The retry budgets live in
  // make_mcclient_params below.
  SimDuration mcd_op_timeout = 0;
  // Probe ejected MCDs for rejoin (flush-first) this often.
  SimDuration mcd_retry_dead_interval = 50 * kMilli;

  // --- file-server brownout (DESIGN.md §5f "Server failure model") ---

  // While the GlusterFS server is ejected (ProtocolClient's ServerHealth
  // view says down), CMCache serves stats and fully-cached reads from the
  // MCD array instead of failing, for at most this long after the server
  // went down; beyond it the cache steps aside so the caller sees the
  // outage instead of unboundedly stale data. Brownout needs a ServerHealth
  // wired (CmCacheXlator::set_server_health); without one, behaviour is
  // unchanged.
  SimDuration brownout_max_staleness = 2000 * kMilli;

  // --- durable write-back into the MCD tier (DESIGN.md §5j) ---

  // Absorb writes into the shared MCD bank instead of forwarding them:
  // payload + dirty-index entry are stored on wb_replicas distinct daemons,
  // the write acks once wb_quorum replicas confirmed, and a background
  // flusher drains dirty epochs to the brick. false = the paper's strictly
  // write-through behaviour (every other knob below is then ignored).
  bool writeback = false;
  // K: distinct daemons each dirty payload/index entry is replicated to
  // (clamped to the deployment's daemon count).
  std::size_t wb_replicas = 2;
  // K_dirty: replicas that must confirm before the write acks. Fewer healthy
  // replicas than this degrades the write to write-through (accounted, never
  // silent).
  std::size_t wb_quorum = 2;
  // Per-client bound on absorbed-but-unflushed bytes; beyond it writes shed
  // to write-through (backpressure, accounted).
  std::uint64_t wb_dirty_limit = 8 * kMiB;
  // Coalescing window: how long the background flusher lets a path's dirty
  // extents settle before its first brick pass (0 = flush immediately).
  // Barriers (fsync/close/unlink/...) drain inline and ignore it.
  SimDuration wb_flush_delay = 0;
};

// Which side of the IMCa protocol a client serves. The reader (CMCache)
// degrades to the server on any MCD trouble; the writer (SMCache) must make
// every publish/purge reach a clean outcome, or stale blocks could survive
// an invalidation (DESIGN.md §5d).
enum class McRole { kReader, kWriter };

inline mcclient::McClientParams make_mcclient_params(
    const ImcaConfig& cfg, McRole role = McRole::kReader) {
  mcclient::McClientParams params;
  if (cfg.rdma_cache_path) {
    params.transport = net::ib_rdma();
    // Verbs bypass the socket layer: the per-key build/parse cost shrinks
    // to descriptor handling.
    params.per_key_cpu = 1 * kMicro;
  }
  params.op_timeout = cfg.mcd_op_timeout;
  if (cfg.mcd_op_timeout > 0) {
    // A cache read retries once before its key degrades to a miss. A
    // publish/purge gets 64 attempts: with 50%-lossy faults that leaves
    // ~2^-64 odds of an unclean give-up. Backoff (200 us doubling to 5 ms)
    // and ejection (after 3 unclean failures) keep McClientParams'
    // defaults.
    constexpr std::size_t kGetAttempts = 2;
    constexpr std::size_t kMutationAttempts = 64;
    params.get_attempts = kGetAttempts;
    params.mutation_attempts = kMutationAttempts;
    params.retry_dead_interval = cfg.mcd_retry_dead_interval;
    if (role == McRole::kWriter) {
      params.reliable_mutations = true;
      params.delete_bypasses_ejection = true;
    }
  } else {
    // Seed behaviour: single attempt, no ejection-by-streak, dead stays dead.
    params.get_attempts = 1;
    params.mutation_attempts = 1;
    params.eject_after = 0;
    params.retry_dead_interval = 0;
  }
  return params;
}

inline std::unique_ptr<mcclient::ServerSelector> make_selector(
    const ImcaConfig& cfg) {
  switch (cfg.hash) {
    case HashScheme::kCrc32:
      return std::make_unique<mcclient::Crc32Selector>();
    case HashScheme::kModulo:
      return std::make_unique<mcclient::ModuloSelector>();
    case HashScheme::kConsistent:
      // The ring is sized for up to 16 daemons.
      return std::make_unique<mcclient::ConsistentSelector>(16);
  }
  return std::make_unique<mcclient::Crc32Selector>();
}

}  // namespace imca::core
