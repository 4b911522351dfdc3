// Durable write-back into the shared MCD tier (DESIGN.md §5j).
//
// In write-back mode CMCache absorbs a write instead of forwarding it: the
// payload is stored byte-identically on K distinct daemons (replica r of a
// key lives at (primary_of + r) % n, pinned — key hashing cannot guarantee
// distinctness), a {epoch, writer, seq, offset, length} entry is CAS-appended
// to the path's dirty-extent index on the same K daemons, and the write acks
// once >= K_dirty (wb_quorum) replicas confirmed both. A background flusher
// drains dirty extents to the brick tier in global epoch order; the brick
// write travels the ordinary translator stack, so the PR 4 replay window
// gives it exactly-once application and SMCache's payload-covered publish
// keeps the block cache coherent.
//
// Contract highlights (the write-back fault matrix tests each):
//   * Ack rule — an acked byte lives on >= K_dirty daemons, flagged
//     kWbDirtyFlag so rejoin purges ("flush_all clean") spare it.
//   * Epoch order — per path, extents flush in ascending epoch across every
//     client: an owner flushes its minimum-epoch extent only when no foreign
//     entry with a smaller epoch remains in the merged index, and removes
//     the entry only after the brick write completed (happens-after).
//   * Read-your-writes — every client's read/stat consults the merged dirty
//     index first (union of all K replicas, deduped by (writer, seq)), then
//     payloads, then the brick, and overlays ascending-epoch — so a payload
//     that vanished mid-read was either flushed (the later base read sees
//     its bytes) or lost (accounted by its owner).
//   * Graceful degradation — fewer than K_dirty healthy daemons, or the
//     dirty-memory bound, degrade the write to write-through after draining
//     the path (ordering), counted in degraded_writes / backpressure_sheds,
//     never silent.
//   * Loss accounting — the owner keeps local *metadata* (never payload
//     bytes) for its unflushed extents; when a flush finds no payload copy
//     on any of the K daemons the extent is lost, counted and recorded, and
//     its index entries are retired. While >= 1 dirty replica survives, no
//     acked byte is lost — the matrix's tested-zero-loss invariant.
//
// Known window (documented in DESIGN.md §5j): with K > K_dirty the index
// and payload quorums may be disjoint subsets, so crashing the index's
// holders can briefly hide a surviving payload from barrier polls; the
// flusher self-heals by re-installing missing index entries from its local
// metadata. K == K_dirty (the default) closes the window entirely.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gluster/xlator.h"
#include "imca/config.h"
#include "imca/keys.h"
#include "mcclient/client.h"
#include "sim/sync.h"

namespace imca::core {

// One absorbed write, as recorded in the shared dirty index.
struct WbExtent {
  std::uint64_t epoch = 0;   // per-path global order (merged-max + 1)
  std::uint64_t writer = 0;  // owning client's id; only the owner flushes
  std::uint64_t seq = 0;     // owner-local; (writer, seq) dedups the union
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

// An acked extent whose every dirty replica died before the flush.
struct WbLostExtent {
  std::string path;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

struct WritebackStats {
  std::uint64_t absorbed = 0;        // writes acked from the MCD tier
  std::uint64_t absorbed_bytes = 0;
  std::uint64_t degraded_writes = 0;     // quorum unavailable -> write-through
  std::uint64_t backpressure_sheds = 0;  // dirty bound hit -> write-through
  std::uint64_t rollbacks = 0;       // partial installs undone before degrade
  std::uint64_t flushed_extents = 0;
  std::uint64_t flushed_bytes = 0;
  std::uint64_t flush_retries = 0;   // brick write attempts after the first
  std::uint64_t flush_requeues = 0;  // worker passes that left work behind
  std::uint64_t lost_extents = 0;    // all K dirty replicas died pre-flush
  std::uint64_t lost_bytes = 0;
  std::uint64_t cas_conflicts = 0;   // index CAS races (retried)
  std::uint64_t index_reinstalls = 0;  // entries re-installed from metadata
  std::uint64_t barrier_timeouts = 0;  // sync gave up after barrier rounds
  std::uint64_t overlay_reads = 0;   // reads that consulted dirty payloads
  std::uint64_t overlay_stats = 0;   // stats whose size took the dirty floor
  std::uint64_t replica_drops = 0;   // per-replica stores that failed
};

class WritebackTier {
 public:
  // Built only when cfg.writeback is set: the tier's existence is the
  // switch. `mcds` must be a writer-role client (reliable mutations + delete
  // bypass); `writer_id` must be unique per client in the deployment.
  WritebackTier(std::unique_ptr<mcclient::McClient> mcds,
                std::uint64_t writer_id, ImcaConfig cfg);
  ~WritebackTier();

  WritebackTier(const WritebackTier&) = delete;
  WritebackTier& operator=(const WritebackTier&) = delete;

  // Wire the brick-path slot (the owning xlator's child_ pointer — stable
  // for the xlator's lifetime, set by the stack builder after construction).
  void attach(gluster::Xlator* const* child_slot) noexcept {
    child_ = child_slot;
  }

  // Try to absorb the write as a dirty extent. true = acked from the cache
  // tier (data is on >= wb_quorum daemons and queued for flush). false =
  // the caller must write through; the path was already drained here so the
  // write-through lands after every older dirty epoch.
  sim::Task<bool> absorb(std::string path, std::uint64_t offset, Buffer data);

  // Barrier: drain every dirty extent on `path` — flush our own, wait for
  // foreign owners — before a dependent op proceeds. kTimedOut after a
  // bounded number of polls (a wedged peer cannot hang the barrier forever).
  sim::Task<Expected<void>> sync_path(std::string path);
  // Barrier over every path this client has pending extents on.
  sim::Task<Expected<void>> sync_all();

  // Read-your-writes overlay. nullopt = no dirty extent overlaps the range
  // and the caller should run its normal read path. Otherwise the complete
  // result: merged index first, payloads second, base read third, overlay
  // ascending-epoch last.
  sim::Task<std::optional<Expected<Buffer>>> overlay_read(std::string path,
                                                          std::uint64_t offset,
                                                          std::uint64_t len);

  // Lower bound on the path's size implied by dirty extents (nullopt when
  // none): stat results are raised to it so pollers see absorbed growth.
  sim::Task<std::optional<std::uint64_t>> dirty_size_floor(std::string path);

  // A successful rename moved the observable bytes: losses recorded on
  // `from` are observable at `to` now, and `to`'s prior losses were
  // replaced away with its old content. Keeps the ledger aligned with what
  // a reader can actually see (it is consulted per-path by the crash
  // matrix's tolerant verifier).
  void note_rename(const std::string& from, const std::string& to);

  std::uint64_t dirty_bytes() const noexcept { return dirty_bytes_; }
  const WritebackStats& stats() const noexcept { return stats_; }
  const std::vector<WbLostExtent>& lost() const noexcept { return lost_; }
  const mcclient::McClient& mcds() const noexcept { return *mcds_; }

 private:
  // Replica fan-out for `path`: all write-back items of a path (index and
  // every payload) pin to the same K daemons, derived from the index key.
  struct Fanout {
    std::size_t base = 0;   // primary_of(wb_index_key(path))
    std::size_t k = 0;      // min(wb_replicas, server_count)
    std::size_t n = 0;      // server_count
    std::size_t at(std::size_t r) const noexcept { return (base + r) % n; }
  };
  Fanout fanout(const std::string& path) const;

  static ByteBuf encode_index(const std::vector<WbExtent>& entries);
  static std::optional<std::vector<WbExtent>> decode_index(Buffer data);

  // Union of the index entries on every reachable replica, deduped by
  // (writer, seq), sorted ascending epoch. (Coroutines take their inputs by
  // value throughout — IMCA-CORO-REF: a reference can dangle across the
  // suspensions these helpers are made of.)
  sim::Task<std::vector<WbExtent>> read_index(std::string path, Fanout f);
  // CAS-append `e` to replica r's index (installs the item if absent).
  sim::Task<bool> append_entry(std::size_t server, std::string path,
                               WbExtent e);
  // CAS-remove the (writer, seq) entry from replica r's index.
  sim::Task<bool> remove_entry(std::size_t server, std::string path,
                               std::uint64_t writer, std::uint64_t seq);
  sim::Task<void> retire_entry(std::string path, Fanout f, WbExtent e);
  // First surviving payload copy among the K replicas; nullopt = every
  // dirty replica is gone (dead daemon or clean miss).
  sim::Task<std::optional<Buffer>> fetch_payload(std::string path, Fanout f,
                                                 WbExtent e);

  // Flush own pending extents for `path` in epoch order, respecting the
  // global-min gate. true = nothing of ours left pending on the path.
  // Callers must hold the path lock.
  sim::Task<bool> flush_path_locked(std::string path);
  sim::Task<void> worker_loop();
  // Drain the path (ignore the outcome) so a degraded write-through cannot
  // be clobbered by an older dirty epoch flushing later.
  sim::Task<void> ordered_fallback(std::string path);

  sim::SimMutex& path_lock(const std::string& path);

  std::unique_ptr<mcclient::McClient> mcds_;
  std::uint64_t writer_id_;
  ImcaConfig cfg_;
  gluster::Xlator* const* child_ = nullptr;
  sim::EventLoop& loop_;

  std::uint64_t next_seq_ = 0;
  std::uint64_t dirty_bytes_ = 0;
  // Own unflushed extents per path, ascending epoch. Metadata only — the
  // bytes live exclusively in the MCD tier (that is what makes total loss
  // possible, and accounted, rather than silently masked).
  std::map<std::string, std::deque<WbExtent>> pending_;
  // Epoch floor per path: the next absorb allocates above both this and the
  // merged index max, so a wiped index cannot reissue an epoch.
  std::map<std::string, std::uint64_t> epoch_floor_;
  std::map<std::string, std::unique_ptr<sim::SimMutex>> path_locks_;
  std::map<std::string, std::size_t> requeue_streak_;
  std::vector<WbLostExtent> lost_;
  WritebackStats stats_;

  sim::Channel<std::string> jobs_;
  // Caller-owned worker frame (same idiom as SMCache): declared after
  // jobs_ so destruction cancels a recv() parked on a live channel.
  sim::Task<void> worker_;
};

}  // namespace imca::core
