#include "imca/cmcache.h"

#include <algorithm>
#include <cassert>

#include "sim/sync.h"

namespace imca::core {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

}  // namespace

CmCacheXlator::Brownout CmCacheXlator::brownout_state() const {
  if (health_ == nullptr || !health_->server_down()) {
    return Brownout::kOff;
  }
  const SimTime now = mcds_->loop().now();
  const SimDuration stale = now - health_->server_down_since();
  return stale <= cfg_.brownout_max_staleness ? Brownout::kServe
                                              : Brownout::kBypass;
}

sim::Task<Expected<store::Attr>> CmCacheXlator::stat(std::string path) {
  auto attr = co_await stat_base(path);
  if (attr && wb_) {
    // Absorbed-but-unflushed extents may extend the file past what the brick
    // (or the cached stat item) reports: raise the size to the dirty floor
    // so pollers observe acked growth (read-your-writes for stat).
    auto floor = co_await wb_->dirty_size_floor(path);
    if (floor && attr->size < *floor) attr->size = *floor;
  }
  co_return attr;
}

sim::Task<Expected<store::Attr>> CmCacheXlator::stat_base(std::string path) {
  const Brownout bo = brownout_state();
  if (bo == Brownout::kBypass) {
    // The outage outlived the staleness bound: a cached answer could be
    // arbitrarily old, so surface the outage instead of serving it.
    ++fault_stats_.brownout_stale_bypass;
    co_return co_await child_->stat(path);
  }
  const std::uint64_t signals = mcds_->stats().fault_signals();
  auto cached = co_await mcds_->get(stat_key(path));
  if (cached) {
    ByteBuf buf(std::move(cached->data));
    auto attr = store::Attr::decode(buf);
    if (attr) {
      ++stats_.stat_hits;
      if (bo == Brownout::kServe) ++fault_stats_.brownout_serves;
      co_return *attr;
    }
    // Undecodable item (shouldn't happen): fall through to the server.
  }
  ++stats_.stat_misses;
  if (faulted_since(signals)) ++fault_stats_.degraded_stats;
  co_return co_await child_->stat(path);
}

sim::Task<Expected<Buffer>> CmCacheXlator::read(std::string path,
                                                std::uint64_t offset,
                                                std::uint64_t len) {
  if (len == 0) co_return Buffer{};

  if (wb_) {
    // Read-your-writes across clients: the shared dirty index is consulted
    // before any cache block or brick byte. Engaged = some dirty extent
    // overlaps the range and the overlay is the complete answer.
    auto overlaid = co_await wb_->overlay_read(path, offset, len);
    if (overlaid) co_return std::move(*overlaid);
  }

  const Brownout bo = brownout_state();
  if (bo == Brownout::kBypass) {
    // Too stale to trust the cache (see stat); the read meets the outage.
    ++fault_stats_.brownout_stale_bypass;
    co_return co_await child_->read(path, offset, len);
  }

  // Degraded-read detection: if the MCD client reported any fault signal
  // during this read *and* the read leaned on the server (forwarded or
  // partial), a fault cost it cached bytes. Detached repairs can also move
  // the signal counter, so this is aggregate-accurate, not per-op-exact.
  const std::uint64_t signals = mcds_->stats().fault_signals();
  const std::uint64_t server_reads =
      stats_.reads_forwarded + stats_.reads_partial;
  const std::uint64_t cache_reads = stats_.reads_from_cache;

  std::optional<Expected<Buffer>> result;
  if (!cfg_.partial_hit_reads) {
    result.emplace(co_await read_forward_on_miss(path, offset, len));
  } else {
    result.emplace(co_await read_partial_hit(path, offset, len));
  }
  if (faulted_since(signals) &&
      stats_.reads_forwarded + stats_.reads_partial != server_reads) {
    ++fault_stats_.degraded_reads;
  }
  if (bo == Brownout::kServe && stats_.reads_from_cache != cache_reads) {
    // Fully answered by the MCD array while the file server was down.
    ++fault_stats_.brownout_serves;
  }
  co_return std::move(*result);
}

sim::Task<Expected<std::uint64_t>> CmCacheXlator::write(
    std::string path, std::uint64_t offset, Buffer data) {
  bump_epoch(path);  // before forwarding: no repair captured earlier may land
  if (wb_) {
    const std::uint64_t n = data.size();
    // absorb() acks from the MCD tier (payload + index on >= wb_quorum
    // daemons) or returns false after draining the path, in which case the
    // write-through below lands after every older dirty epoch.
    if (co_await wb_->absorb(path, offset, data)) co_return n;
  }
  co_return co_await child_->write(path, offset, std::move(data));
}

sim::Task<Expected<void>> CmCacheXlator::unlink(std::string path) {
  bump_epoch(path);
  // Dependent-op barrier: dirty extents must reach the brick before the
  // name disappears, or a flush could recreate the file. A barrier timeout
  // fails the op — never silently reordered.
  if (wb_) {
    auto drained = co_await wb_->sync_path(path);
    if (!drained) co_return drained.error();
  }
  co_return co_await child_->unlink(path);
}

sim::Task<Expected<void>> CmCacheXlator::truncate(std::string path,
                                                  std::uint64_t size) {
  bump_epoch(path);
  if (wb_) {
    // Same barrier as unlink: a dirty extent flushing after the truncate
    // would resurrect truncated bytes.
    auto drained = co_await wb_->sync_path(path);
    if (!drained) co_return drained.error();
  }
  co_return co_await child_->truncate(path, size);
}

sim::Task<Expected<void>> CmCacheXlator::rename(std::string from,
                                                std::string to) {
  bump_epoch(from);
  bump_epoch(to);
  if (wb_) {
    // Extents are keyed by path: they must land under the old name before
    // it moves (and the target's before it is replaced).
    auto drained = co_await wb_->sync_path(from);
    if (!drained) co_return drained.error();
    drained = co_await wb_->sync_path(to);
    if (!drained) co_return drained.error();
  }
  auto renamed = co_await child_->rename(from, to);
  if (renamed && wb_) wb_->note_rename(from, to);
  co_return renamed;
}

sim::Task<Expected<void>> CmCacheXlator::fsync(std::string path) {
  if (wb_) {
    auto drained = co_await wb_->sync_path(path);
    if (!drained) co_return drained.error();
  }
  co_return co_await child_->fsync(path);
}

sim::Task<Expected<void>> CmCacheXlator::close(std::string path) {
  // close-to-open consistency: the writer's dirty extents are on the brick
  // before close returns, so the next open anywhere reads them back.
  if (wb_) {
    auto drained = co_await wb_->sync_path(path);
    if (!drained) co_return drained.error();
  }
  co_return co_await child_->close(path);
}

sim::Task<Expected<Buffer>> CmCacheXlator::read_forward_on_miss(
    std::string path, std::uint64_t offset, std::uint64_t len) {
  const auto blocks = mapper_.covering(offset, len);
  std::vector<std::string> keys;
  std::vector<std::uint64_t> hints;
  keys.reserve(blocks.size());
  hints.reserve(blocks.size());
  for (const auto b : blocks) {
    keys.push_back(data_key(path, mapper_.start_of(b)));
    hints.push_back(b);
  }
  stats_.blocks_requested += blocks.size();

  auto got = co_await mcds_->multi_get(std::move(keys), hints);
  for (const auto& v : got) stats_.blocks_hit += v.has_value();

  auto cached = assemble_cached(mapper_, offset, len, got);
  if (!cached) {
    // At least one needed block missed: the whole read goes to the server
    // (and SMCache will repopulate the daemons on the way back).
    ++stats_.reads_forwarded;
    co_return co_await child_->read(path, offset, len);
  }
  ++stats_.reads_from_cache;
  co_return std::move(*cached);  // views of the cached segments
}

sim::Task<Expected<Buffer>> CmCacheXlator::read_partial_hit(
    std::string path, std::uint64_t offset, std::uint64_t len) {
  const std::uint64_t bs = mapper_.block_size();
  const auto blocks = mapper_.covering(offset, len);
  stats_.blocks_requested += blocks.size();
  // Captured before any fetch: bytes read under this epoch may only be
  // repaired into the MCDs while the path is still at this epoch.
  const std::uint64_t read_epoch = epoch_of(path);

  // One slot per covering block, in ascending block order. Every slot ends
  // the pipeline below holding `bytes` (possibly short or empty = EOF) or
  // `failed`.
  struct Slot {
    std::uint64_t block = 0;
    std::string key;
    std::optional<Buffer> bytes;  // unset until resolved
    bool from_server = false;     // resolved by this read's own range fetch
    bool failed = false;
    SingleFlight<BlockResult>::FlightPtr waiting;  // someone else is fetching
    SingleFlight<BlockResult>::FlightPtr leading;  // we must complete this
  };
  std::vector<Slot> slots(blocks.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i].block = blocks[i];
    slots[i].key = data_key(path, mapper_.start_of(blocks[i]));
  }

  // 1. Join the per-block single-flights. Blocks another read is already
  //    resolving are awaited (step 5), not re-fetched; all other blocks are
  //    owned by this read, which must publish their results.
  for (auto& s : slots) {
    auto [flight, leader] = inflight_.join(s.key);
    if (leader) {
      s.leading = std::move(flight);
    } else {
      s.waiting = std::move(flight);
      ++stats_.coalesced_waiters;
    }
  }

  // 2. One batched multi-get for the owned blocks.
  std::vector<std::string> get_keys;
  std::vector<std::uint64_t> get_hints;
  std::vector<std::size_t> get_slots;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].waiting) continue;
    get_keys.push_back(slots[i].key);
    get_hints.push_back(slots[i].block);
    get_slots.push_back(i);
  }
  std::size_t cached_hits = 0;
  if (!get_keys.empty()) {
    auto got = co_await mcds_->multi_get(std::move(get_keys), get_hints);
    for (std::size_t j = 0; j < got.size(); ++j) {
      if (!got[j]) continue;
      auto& s = slots[get_slots[j]];
      s.bytes = std::move(got[j]->data);
      ++cached_hits;
      if (s.leading) inflight_.complete(s.key, s.leading, BlockResult{*s.bytes});
    }
  }
  stats_.blocks_hit += cached_hits;

  // 3. A short cached block marks EOF: owned blocks after it cannot hold
  //    data, so resolve them to empty instead of asking the server.
  std::size_t eof_slot = kNone;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].bytes && slots[i].bytes->size() < bs) {
      eof_slot = i;
      break;
    }
  }
  if (eof_slot != kNone) {
    for (std::size_t i = eof_slot + 1; i < slots.size(); ++i) {
      auto& s = slots[i];
      if (s.bytes || s.waiting) continue;
      s.bytes.emplace();  // empty = at/after EOF
      if (s.leading) inflight_.complete(s.key, s.leading, BlockResult{*s.bytes});
    }
  }

  // 4. Fetch each contiguous run of still-unresolved owned blocks as one
  //    server range-read, all runs issued concurrently.
  struct Run {
    std::size_t first = 0;  // slot index
    std::size_t count = 0;
  };
  std::vector<Run> runs;
  for (std::size_t i = 0; i < slots.size();) {
    if (slots[i].bytes || slots[i].waiting) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < slots.size() && !slots[j].bytes && !slots[j].waiting) ++j;
    runs.push_back(Run{i, j - i});
    i = j;
  }
  std::vector<Expected<Buffer>> fetched;
  if (!runs.empty()) {
    stats_.range_fetches += runs.size();
    std::vector<sim::Task<Expected<Buffer>>> fetches;
    fetches.reserve(runs.size());
    for (const auto& run : runs) {
      const std::uint64_t start = mapper_.start_of(slots[run.first].block);
      const std::uint64_t length = static_cast<std::uint64_t>(run.count) * bs;
      fetches.push_back(child_->read(path, start, length));
    }
    fetched = co_await sim::gather(mcds_->loop(), std::move(fetches));
  }

  // 5. Distribute each run's bytes back to its slots as zero-copy slices of
  //    the range-read's segments (a slice past the end of the returned data
  //    is an empty block = at/after EOF). A failed run fails its slots;
  //    either way every led flight is completed so waiters never hang.
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const Run& run = runs[r];
    const Expected<Buffer>& got = fetched[r];
    for (std::size_t k = 0; k < run.count; ++k) {
      auto& s = slots[run.first + k];
      if (!got) {
        s.failed = true;
        if (s.leading) inflight_.complete(s.key, s.leading, BlockResult{got.error()});
        continue;
      }
      s.bytes = got->slice(static_cast<std::size_t>(k * bs),
                           static_cast<std::size_t>(bs));
      s.from_server = true;
      if (s.leading) inflight_.complete(s.key, s.leading, BlockResult{*s.bytes});
    }
  }

  // 6. Read-repair: push the server-fetched blocks into the MCD array,
  //    fire-and-forget, so the next reader hits. Empty blocks are skipped —
  //    mirroring SMCache's publish rule — so a block at/after EOF never
  //    becomes a cached false EOF marker. The repair carries the path's
  //    write epoch from before the server fetch: if the file is mutated
  //    while the repair is parked, the stale bytes are withheld.
  std::vector<Repair> repairs;
  for (const auto& s : slots) {
    if (s.from_server && s.bytes && !s.bytes->empty()) {
      repairs.push_back(Repair{s.key, s.block, *s.bytes});  // shared views
    }
  }
  if (!repairs.empty()) {
    mcds_->loop().spawn(repair_blocks(path, read_epoch, std::move(repairs)));
  }

  // 7. Collect blocks other reads were already fetching.
  bool any_waited = false;
  for (auto& s : slots) {
    if (!s.waiting) continue;
    any_waited = true;
    co_await s.waiting->done.wait();
    const BlockResult& r = *s.waiting->value;
    if (r) {
      s.bytes = *r;  // share the leader's segments
    } else {
      s.failed = true;
    }
  }

  // 8. Any failed slot (server range-read error, here or in the flight we
  //    joined): fall back to forwarding the whole original read, which
  //    yields the server's own answer/error for exactly the bytes asked.
  //    All led flights were completed above, so nobody is left hanging.
  if (std::any_of(slots.begin(), slots.end(),
                  [](const Slot& s) { return s.failed; })) {
    ++stats_.reads_forwarded;
    co_return co_await child_->read(path, offset, len);
  }

  // 9. Assemble in block order by splicing the resolved buffers — cached
  //    segments, server range segments and flight-shared segments end up
  //    side by side in one view chain; a short block ends the file.
  Buffer assembled;
  bool hit_server = false;
  for (auto& s : slots) {
    const std::size_t block_len = s.bytes->size();
    assembled.append(std::move(*s.bytes));
    hit_server = hit_server || s.from_server;
    if (block_len < bs) break;  // short block = EOF
  }

  if (!hit_server) {
    // Every block came from the MCD array or from a flight another read was
    // already resolving — either way this read issued no server I/O.
    ++stats_.reads_from_cache;
  } else if (cached_hits > 0 || any_waited) {
    ++stats_.reads_partial;
  } else {
    ++stats_.reads_forwarded;  // nothing cached helped; all bytes from server
  }

  const std::uint64_t skip = offset - mapper_.align_down(offset);
  if (assembled.size() <= skip) co_return Buffer{};  // EOF
  co_return assembled.slice(skip, len);  // views; no payload copy
}

sim::Task<void> CmCacheXlator::repair_blocks(std::string path,
                                             std::uint64_t epoch,
                                             std::vector<Repair> repairs) {
  for (std::size_t i = 0; i < repairs.size(); ++i) {
    if (epoch_of(path) != epoch) {
      // The path was written/truncated/renamed/unlinked since these bytes
      // left the server: they may describe a file that no longer exists.
      // Withhold the rest — SMCache's purge bookkeeping can't reach blocks
      // it never knew were cached.
      fault_stats_.repairs_skipped_stale += repairs.size() - i;
      co_return;
    }
    auto& r = repairs[i];
    // `add`, not `set`: a repair must never clobber a fresher publish or
    // another reader's repair. NOT_STORED means the cache already holds the
    // block — the warm-cache outcome the repair wanted.
    auto stored = co_await mcds_->add(r.key, std::move(r.bytes), r.block);
    if (stored || stored.error() == Errc::kNotStored) {
      ++stats_.blocks_repaired;
    } else {
      ++fault_stats_.repairs_dropped;  // daemon dead or exchange faulted
    }
  }
}

}  // namespace imca::core
