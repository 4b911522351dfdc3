// CMCache — the Client Memory Cache translator (paper §4.1, §4.2, §4.3.2).
//
// Sits in the GlusterFS *client* stack and intercepts:
//   * stat  — fetch "<path>:stat" from the MCD array; on a miss the stat
//             propagates to the server unchanged.
//   * read  — map the request to IMCa blocks, multi-get them from the MCDs
//             (batched per daemon, hints carry the block index for the
//             modulo selector) and assemble locally.
//   * write/create/delete/open/close — pass through untouched; the server
//     side (SMCache) owns authoritative cache updates and purges.
//
// Miss-path handling (see DESIGN.md "Miss-path handling"): the paper's
// CMCache discards every hit as soon as one covering block misses and
// forwards the whole read, which is why a cold read costs *more* than plain
// GlusterFS (§4.4). This implementation instead:
//   1. assembles partial hits — only the missing byte ranges are fetched
//      from the server (one coalesced range-read per contiguous run of
//      missing blocks, issued concurrently) and spliced with cached blocks;
//   2. read-repairs — server-fetched blocks are pushed back into the MCD
//      array fire-and-forget, so one miss warms the cache without waiting
//      for SMCache's server-side publish;
//   3. single-flights — concurrent fetches of the same <path>:<block>
//      collapse into one MCD fetch + one server range-read.
// cfg.partial_hit_reads = false restores the paper's forward-on-any-miss
// behaviour (the ablation baseline), whose all-or-nothing block assembly
// is assemble_cached (block_mapper.h).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "gluster/xlator.h"
#include "imca/block_mapper.h"
#include "imca/config.h"
#include "imca/keys.h"
#include "imca/singleflight.h"
#include "imca/writeback.h"
#include "mcclient/client.h"

namespace imca::core {

struct CmCacheStats {
  std::uint64_t stat_hits = 0;
  std::uint64_t stat_misses = 0;
  std::uint64_t reads_from_cache = 0;   // fully served by the MCD array
  std::uint64_t reads_partial = 0;      // cached blocks spliced with server ranges
  std::uint64_t reads_forwarded = 0;    // no cached block helped; all from server
  std::uint64_t blocks_requested = 0;
  std::uint64_t blocks_hit = 0;
  std::uint64_t range_fetches = 0;      // coalesced server range-reads issued
  std::uint64_t blocks_repaired = 0;    // read-repair adds that left the block cached
  std::uint64_t coalesced_waiters = 0;  // block fetches piggybacked on a flight
};

// How MCD faults bent this client's traffic (DESIGN.md §5d). A "degraded"
// op is one whose MCD exchange was disturbed by a fault (timeout, torn
// reply, dead daemon) and that therefore leaned on the server for bytes it
// might otherwise have had cached — the op still *succeeds*, it just pays
// the uncached price. The invariant harness checks these counters account
// for every op a fault plan touched.
struct FaultStats {
  std::uint64_t degraded_reads = 0;          // reads that hit a faulted MCD path
  std::uint64_t degraded_stats = 0;          // stat lookups likewise
  std::uint64_t repairs_dropped = 0;         // read-repair adds lost to faults
  std::uint64_t repairs_skipped_stale = 0;   // repairs withheld: path changed
  // --- file-server brownout (DESIGN.md §5f) ---
  std::uint64_t brownout_serves = 0;        // cache answers given while the
                                            // server was down, within bound
  std::uint64_t brownout_stale_bypass = 0;  // ops sent to the dead server
                                            // because the bound had passed
};

class CmCacheXlator final : public gluster::Xlator {
 public:
  // `mcds` is the client's own connection set to the cache bank.
  CmCacheXlator(std::unique_ptr<mcclient::McClient> mcds, ImcaConfig cfg)
      : mcds_(std::move(mcds)),
        mapper_(cfg.block_size),
        cfg_(cfg),
        inflight_(mcds_->loop()) {}

  sim::Task<Expected<store::Attr>> stat(std::string path) override;
  sim::Task<Expected<Buffer>> read(std::string path,
                                   std::uint64_t offset,
                                   std::uint64_t len) override;

  // Mutations pass through to the server, but each bumps the path's write
  // epoch *before* forwarding so an in-flight read-repair captured under the
  // old contents can never land after the change (see repair_blocks). In
  // write-back mode (set_writeback) a write is absorbed into the MCD tier
  // instead, and the structural mutations barrier on the path's dirty
  // extents first — flush-before-dependent-op, lifted to the shared tier.
  sim::Task<Expected<std::uint64_t>> write(std::string path,
                                           std::uint64_t offset,
                                           Buffer data) override;
  sim::Task<Expected<void>> unlink(std::string path) override;
  sim::Task<Expected<void>> truncate(std::string path,
                                     std::uint64_t size) override;
  sim::Task<Expected<void>> rename(std::string from,
                                   std::string to) override;
  // Durability barriers: drain the path's dirty write-back extents (ours by
  // flushing, foreign by waiting for their owner) before forwarding.
  sim::Task<Expected<void>> fsync(std::string path) override;
  sim::Task<Expected<void>> close(std::string path) override;

  std::string_view name() const override { return "cmcache"; }

  // Wire the file server's health view (ProtocolClient). Enables brownout:
  // while the server is ejected, stats and fully-cached reads are served
  // from the MCD array within cfg.brownout_max_staleness of the outage
  // start; beyond that the cache is bypassed so callers see the outage.
  void set_server_health(const gluster::ServerHealth* health) noexcept {
    health_ = health;
  }

  // Wire the durable write-back tier (DESIGN.md §5j). Must precede the first
  // fop; the tier flushes through whatever ends up below this translator, so
  // it binds to the child *slot*, which set_child may still retarget.
  void set_writeback(std::unique_ptr<WritebackTier> wb) {
    wb_ = std::move(wb);
    if (wb_) wb_->attach(&child_);
  }
  WritebackTier* writeback() noexcept { return wb_.get(); }

  const CmCacheStats& stats() const noexcept { return stats_; }
  const FaultStats& fault_stats() const noexcept { return fault_stats_; }
  const mcclient::McClient& mcds() const noexcept { return *mcds_; }
  const BlockMapper& mapper() const noexcept { return mapper_; }

 private:
  // A resolved block's bytes: full block, short (EOF inside the block) or
  // empty (at/after EOF). Buffers share segments, so single-flight waiters
  // splice the same storage the leader produced, without copies.
  using BlockResult = Expected<Buffer>;

  struct Repair {
    std::string key;
    std::uint64_t block = 0;  // routing hint for the modulo selector
    Buffer bytes;
  };

  // stat() minus the dirty-size floor: the cache/brownout/server pipeline.
  sim::Task<Expected<store::Attr>> stat_base(std::string path);
  // The paper's path: any miss discards the hits and forwards the whole read.
  sim::Task<Expected<Buffer>> read_forward_on_miss(std::string path,
                                                   std::uint64_t offset,
                                                   std::uint64_t len);
  // The rebuilt path: partial-hit assembly + read-repair + single-flight.
  sim::Task<Expected<Buffer>> read_partial_hit(std::string path,
                                               std::uint64_t offset,
                                               std::uint64_t len);
  // Fire-and-forget: push server-fetched blocks into the MCD array. `epoch`
  // is the path's write epoch captured when the read began; a repair is
  // withheld if the path has been mutated since.
  sim::Task<void> repair_blocks(std::string path, std::uint64_t epoch,
                                std::vector<Repair> repairs);

  std::uint64_t epoch_of(const std::string& path) const {
    const auto it = write_epoch_.find(path);
    return it == write_epoch_.end() ? 0 : it->second;
  }
  void bump_epoch(const std::string& path) { ++write_epoch_[path]; }

  // True when the MCD client reported any fault signal since `before` — the
  // exchange the caller just made was disturbed.
  bool faulted_since(std::uint64_t before) const {
    return mcds_->stats().fault_signals() != before;
  }

  // How this op should treat the cache given the file server's health.
  enum class Brownout {
    kOff,     // server up (or no health view): normal behaviour
    kServe,   // server down, within the staleness bound: cache may answer
    kBypass,  // server down too long: skip the cache, surface the outage
  };
  Brownout brownout_state() const;

  std::unique_ptr<mcclient::McClient> mcds_;
  std::unique_ptr<WritebackTier> wb_;  // null = write-through (the paper)
  BlockMapper mapper_;
  ImcaConfig cfg_;
  const gluster::ServerHealth* health_ = nullptr;
  CmCacheStats stats_;
  FaultStats fault_stats_;
  SingleFlight<BlockResult> inflight_;
  // Per-path mutation counter; monotone over the client's lifetime.
  std::unordered_map<std::string, std::uint64_t> write_epoch_;
};

}  // namespace imca::core
