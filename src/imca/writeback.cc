#include "imca/writeback.h"

#include <algorithm>
#include <cassert>

#include "memcache/cache.h"
#include "sim/event_loop.h"

namespace imca::core {

namespace {

// CAS attempts per index append/remove. Conflicts come only from the other
// writers of the same path (each client serializes its own ops per path), so
// contention is tiny; the budget rides out a burst plus transient faults.
constexpr unsigned kCasAttempts = 16;

// Flusher retry schedule for brick writes: the per-pass attempts ride out
// transient kBusy/crash windows, and a pass that still fails re-queues the
// path. Retries, re-queues and barrier polls all wait kFlushBackoff
// doubling up to kFlushBackoffCap.
constexpr std::size_t kFlushAttempts = 6;
constexpr SimDuration kFlushBackoff = 1 * kMilli;
constexpr SimDuration kFlushBackoffCap = 16 * kFlushBackoff;
// Barrier patience: poll rounds an fsync/close/dependent op waits for
// *other* writers' dirty extents on the path to drain before giving up with
// kTimedOut, so a wedged peer cannot hang a barrier forever.
constexpr std::size_t kBarrierRounds = 4000;

}  // namespace

WritebackTier::WritebackTier(std::unique_ptr<mcclient::McClient> mcds,
                             std::uint64_t writer_id, ImcaConfig cfg)
    : mcds_(std::move(mcds)),
      writer_id_(writer_id),
      cfg_(cfg),
      loop_(mcds_->loop()),
      jobs_(loop_) {
  worker_ = worker_loop();
  loop_.start(worker_);
}

// ~worker_ (member destruction) cancels the flusher at its suspension point
// and reclaims the frame — the SMCache worker idiom. jobs_ outlives worker_
// (declaration order), so a recv() parked on the channel dies cleanly.
WritebackTier::~WritebackTier() = default;

sim::SimMutex& WritebackTier::path_lock(const std::string& path) {
  auto it = path_locks_.find(path);
  if (it == path_locks_.end()) {
    it = path_locks_.emplace(path, std::make_unique<sim::SimMutex>(loop_))
             .first;
  }
  return *it->second;
}

WritebackTier::Fanout WritebackTier::fanout(const std::string& path) const {
  Fanout f;
  f.n = mcds_->server_count();
  f.base = mcds_->primary_of(wb_index_key(path));
  f.k = std::min<std::size_t>(cfg_.wb_replicas, f.n);
  return f;
}

ByteBuf WritebackTier::encode_index(const std::vector<WbExtent>& entries) {
  ByteBuf buf;
  buf.put_u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) {
    buf.put_u64(e.epoch);
    buf.put_u64(e.writer);
    buf.put_u64(e.seq);
    buf.put_u64(e.offset);
    buf.put_u64(e.length);
  }
  return buf;
}

std::optional<std::vector<WbExtent>> WritebackTier::decode_index(Buffer data) {
  ByteBuf buf(std::move(data));
  auto count = buf.get_u32();
  if (!count) return std::nullopt;
  std::vector<WbExtent> entries;
  entries.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    WbExtent e;
    auto epoch = buf.get_u64();
    auto writer = buf.get_u64();
    auto seq = buf.get_u64();
    auto offset = buf.get_u64();
    auto length = buf.get_u64();
    if (!epoch || !writer || !seq || !offset || !length) return std::nullopt;
    e.epoch = *epoch;
    e.writer = *writer;
    e.seq = *seq;
    e.offset = *offset;
    e.length = *length;
    entries.push_back(e);
  }
  return entries;
}

sim::Task<std::vector<WbExtent>> WritebackTier::read_index(std::string path,
                                                            Fanout f) {
  // All K replicas, concurrently: a restarted-empty replica must never mask
  // entries its siblings still hold, so the result is the union.
  std::vector<sim::Task<Expected<memcache::Value>>> gets;
  gets.reserve(f.k);
  for (std::size_t r = 0; r < f.k; ++r) {
    gets.push_back(mcds_->get_at(f.at(r), wb_index_key(path)));
  }
  auto replies = co_await sim::gather(loop_, std::move(gets));

  std::vector<WbExtent> merged;
  for (auto& got : replies) {
    if (!got) continue;
    const auto copy = decode_index(std::move(got->data));
    if (!copy) continue;
    for (const auto& e : *copy) {
      const bool seen =
          std::any_of(merged.begin(), merged.end(), [&](const WbExtent& m) {
            return m.writer == e.writer && m.seq == e.seq;
          });
      if (!seen) merged.push_back(e);
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const WbExtent& a, const WbExtent& b) {
              if (a.epoch != b.epoch) return a.epoch < b.epoch;
              if (a.writer != b.writer) return a.writer < b.writer;
              return a.seq < b.seq;
            });
  co_return merged;
}

sim::Task<bool> WritebackTier::append_entry(std::size_t server,
                                            std::string path, WbExtent e) {
  const std::string key = wb_index_key(path);
  for (unsigned attempt = 0; attempt < kCasAttempts; ++attempt) {
    auto got = co_await mcds_->gets_at(server, key);
    if (got) {
      auto entries = decode_index(std::move(got->data));
      if (!entries) co_return false;  // corrupt index: outside the model
      const bool present =
          std::any_of(entries->begin(), entries->end(), [&](const WbExtent& m) {
            return m.writer == e.writer && m.seq == e.seq;
          });
      if (present) co_return true;
      entries->push_back(e);
      auto swapped =
          co_await mcds_->cas_at(server, key, encode_index(*entries).buffer(),
                                 got->cas, memcache::kWbDirtyFlag);
      if (swapped) co_return true;
      if (swapped.error() == Errc::kBusy || swapped.error() == Errc::kNoEnt) {
        ++stats_.cas_conflicts;
        continue;
      }
      co_return false;
    }
    if (got.error() == Errc::kNoEnt) {
      const std::vector<WbExtent> only{e};
      auto added = co_await mcds_->add_at(server, key,
                                          encode_index(only).buffer(),
                                          memcache::kWbDirtyFlag);
      if (added) co_return true;
      if (added.error() == Errc::kNotStored) {
        ++stats_.cas_conflicts;  // another writer installed the item first
        continue;
      }
      co_return false;
    }
    co_return false;  // replica unreachable
  }
  co_return false;
}

sim::Task<bool> WritebackTier::remove_entry(std::size_t server,
                                            std::string path,
                                            std::uint64_t writer,
                                            std::uint64_t seq) {
  const std::string key = wb_index_key(path);
  for (unsigned attempt = 0; attempt < kCasAttempts; ++attempt) {
    auto got = co_await mcds_->gets_at(server, key);
    if (!got) co_return got.error() == Errc::kNoEnt;
    auto entries = decode_index(std::move(got->data));
    if (!entries) co_return false;
    const auto it =
        std::find_if(entries->begin(), entries->end(), [&](const WbExtent& m) {
          return m.writer == writer && m.seq == seq;
        });
    if (it == entries->end()) co_return true;
    entries->erase(it);
    // CAS to the shrunken list, never delete the item: a raw delete would
    // race a concurrent CAS-append and destroy the appender's entry.
    auto swapped =
        co_await mcds_->cas_at(server, key, encode_index(*entries).buffer(),
                               got->cas, memcache::kWbDirtyFlag);
    if (swapped) co_return true;
    if (swapped.error() == Errc::kBusy || swapped.error() == Errc::kNoEnt) {
      ++stats_.cas_conflicts;
      continue;
    }
    co_return false;
  }
  co_return false;
}

sim::Task<void> WritebackTier::retire_entry(std::string path, Fanout f,
                                            WbExtent e) {
  // Index entries first, payload second: a reader that saw the entry before
  // removal must still find either the payload or (removal happens-after the
  // brick write) the flushed bytes under its later base read.
  for (std::size_t r = 0; r < f.k; ++r) {
    (void)co_await remove_entry(f.at(r), path, e.writer, e.seq);
  }
  const std::string pkey = wb_payload_key(path, e.writer, e.seq);
  for (std::size_t r = 0; r < f.k; ++r) {
    (void)co_await mcds_->del_at(f.at(r), pkey);
  }
}

sim::Task<std::optional<Buffer>> WritebackTier::fetch_payload(std::string path,
                                                              Fanout f,
                                                              WbExtent e) {
  const std::string key = wb_payload_key(path, e.writer, e.seq);
  for (std::size_t r = 0; r < f.k; ++r) {
    auto got = co_await mcds_->get_at(f.at(r), key);
    if (got && got->data.size() == e.length) co_return std::move(got->data);
  }
  co_return std::nullopt;
}

sim::Task<bool> WritebackTier::absorb(std::string path, std::uint64_t offset,
                                      Buffer data) {
  if (child_ == nullptr || data.empty()) co_return false;
  const Fanout f = fanout(path);
  if (f.k < cfg_.wb_quorum) {
    // Deployment smaller than the ack rule: permanent write-through.
    ++stats_.degraded_writes;
    co_await ordered_fallback(path);
    co_return false;
  }
  if (dirty_bytes_ + data.size() > cfg_.wb_dirty_limit) {
    ++stats_.backpressure_sheds;
    // absorb() is awaited by the front-end request path, which owns the
    // tier — no destruction mid-suspension.
    // NOLINTNEXTLINE(imca-coro-this): frame awaited by the tier's owner
    co_await ordered_fallback(path);
    co_return false;
  }
  std::size_t healthy = 0;
  for (std::size_t r = 0; r < f.k; ++r) {
    if (!mcds_->server_dead(f.at(r))) ++healthy;
  }
  if (healthy < cfg_.wb_quorum) {
    ++stats_.degraded_writes;  // brownout: fewer than K_dirty healthy MCDs
    co_await ordered_fallback(path);
    co_return false;
  }

  sim::SimMutex& mu = path_lock(path);
  co_await mu.lock();

  // Epoch above everything visible anywhere and everything we ever issued:
  // merged-max + 1, floored by our local counter so a wiped index (every
  // replica crashed) cannot reissue an epoch.
  auto merged = co_await read_index(path, f);
  std::uint64_t top = epoch_floor_[path];
  for (const auto& e : merged) top = std::max(top, e.epoch);
  WbExtent ext;
  ext.epoch = top + 1;
  ext.writer = writer_id_;
  ext.seq = ++next_seq_;
  ext.offset = offset;
  ext.length = data.size();
  epoch_floor_[path] = ext.epoch;

  // Payload to the K pinned replicas, concurrently, dirty-flagged so a
  // rejoin purge ("flush_all clean") spares it.
  const std::string pkey = wb_payload_key(path, ext.writer, ext.seq);
  std::vector<sim::Task<Expected<void>>> sets;
  sets.reserve(f.k);
  for (std::size_t r = 0; r < f.k; ++r) {
    sets.push_back(
        mcds_->set_at(f.at(r), pkey, data, memcache::kWbDirtyFlag));
  }
  const auto stored = co_await sim::gather(loop_, std::move(sets));
  const auto acks = static_cast<std::size_t>(
      std::count_if(stored.begin(), stored.end(),
                    [](const Expected<void>& s) { return s.has_value(); }));
  stats_.replica_drops += f.k - acks;
  if (acks < cfg_.wb_quorum) {
    for (std::size_t r = 0; r < f.k; ++r) {
      if (stored[r]) (void)co_await mcds_->del_at(f.at(r), pkey);
    }
    ++stats_.degraded_writes;
    mu.unlock();
    co_await ordered_fallback(path);
    co_return false;
  }

  // Index entry to the same K replicas. Payload-first ordering: an entry is
  // never visible without its bytes having reached quorum.
  std::vector<sim::Task<bool>> appends;
  appends.reserve(f.k);
  for (std::size_t r = 0; r < f.k; ++r) {
    appends.push_back(append_entry(f.at(r), path, ext));
  }
  const std::vector<bool> iacks =
      co_await sim::gather(loop_, std::move(appends));
  const auto indexed =
      static_cast<std::size_t>(std::count(iacks.begin(), iacks.end(), true));
  stats_.replica_drops += f.k - indexed;
  if (indexed < cfg_.wb_quorum) {
    // Roll back the partial install: the write is about to be re-issued
    // through the brick, so no reader (or future flush) may keep seeing it
    // as a dirty extent.
    ++stats_.rollbacks;
    for (std::size_t r = 0; r < f.k; ++r) {
      if (iacks[r]) {
        (void)co_await remove_entry(f.at(r), path, ext.writer, ext.seq);
      }
    }
    for (std::size_t r = 0; r < f.k; ++r) {
      (void)co_await mcds_->del_at(f.at(r), pkey);
    }
    ++stats_.degraded_writes;
    mu.unlock();
    co_await ordered_fallback(path);
    co_return false;
  }

  ++stats_.absorbed;
  stats_.absorbed_bytes += ext.length;
  dirty_bytes_ += ext.length;
  pending_[path].push_back(ext);  // ascending epoch by construction
  mu.unlock();
  jobs_.send(path);
  co_return true;
}

sim::Task<void> WritebackTier::ordered_fallback(std::string path) {
  // A degraded write is about to go through the brick directly; drain older
  // dirty epochs first so a late flush cannot clobber it. A barrier timeout
  // is already accounted and the write proceeds regardless — a wedged peer
  // must not hang the caller's op.
  (void)co_await sync_path(path);
}

sim::Task<bool> WritebackTier::flush_path_locked(std::string path) {
  if (child_ == nullptr) co_return true;
  const Fanout f = fanout(path);
  std::deque<WbExtent>& dq = pending_[path];
  while (!dq.empty()) {
    const WbExtent ext = dq.front();
    auto merged = co_await read_index(path, f);

    bool ours_indexed = false;
    bool blocked = false;
    std::vector<WbExtent> leftovers;
    for (const auto& m : merged) {
      if (m.writer == writer_id_) {
        if (m.seq == ext.seq) {
          ours_indexed = true;
        } else if (std::none_of(dq.begin(), dq.end(), [&](const WbExtent& p) {
                     return p.seq == m.seq;
                   })) {
          leftovers.push_back(m);  // incomplete removal from an earlier flush
        }
      } else if (m.epoch < ext.epoch) {
        blocked = true;  // an older foreign epoch must reach the brick first
      }
    }
    for (const auto& l : leftovers) co_await retire_entry(path, f, l);
    if (blocked) co_return false;  // not our turn; requeue and poll

    auto payload = co_await fetch_payload(path, f, ext);
    if (!payload) {
      // Every dirty replica died before the flush: the acked bytes are gone.
      // Account the loss — never silently — and retire the extent so
      // barriers and the peers behind it unblock.
      ++stats_.lost_extents;
      stats_.lost_bytes += ext.length;
      lost_.push_back(WbLostExtent{path, ext.offset, ext.length});
      co_await retire_entry(path, f, ext);
      dirty_bytes_ -= ext.length;
      dq.pop_front();
      continue;
    }
    if (!ours_indexed) {
      // The index copies died but a payload survives: re-install the entry
      // from local metadata so readers and barriers see the extent again.
      ++stats_.index_reinstalls;
      for (std::size_t r = 0; r < f.k; ++r) {
        (void)co_await append_entry(f.at(r), path, ext);
      }
    }

    // The brick write travels the ordinary stack: ProtocolClient numbers it
    // and the replay window applies it exactly once across retries.
    Errc err = Errc::kOk;
    bool written = false;
    for (std::size_t attempt = 0; attempt < kFlushAttempts; ++attempt) {
      if (attempt > 0) {
        ++stats_.flush_retries;
        co_await loop_.sleep(
            backoff_delay(kFlushBackoff, attempt - 1, kFlushBackoffCap));
      }
      auto wrote = co_await (*child_)->write(path, ext.offset, *payload);
      if (wrote) {
        written = true;
        break;
      }
      err = wrote.error();
      if (err == Errc::kNoEnt) break;  // unlinked underneath: nothing to keep
    }
    if (!written && err != Errc::kNoEnt) co_return false;  // stays dirty

    // Retire only after the brick write completed (happens-after): the next
    // epoch's owner proceeds only once it observes the removal.
    co_await retire_entry(path, f, ext);
    ++stats_.flushed_extents;
    stats_.flushed_bytes += ext.length;
    dirty_bytes_ -= ext.length;
    dq.pop_front();
  }
  pending_.erase(path);
  co_return true;
}

sim::Task<void> WritebackTier::worker_loop() {
  // Runs until cancelled by ~WritebackTier (the owner destroys the frame).
  while (true) {
    std::string path = co_await jobs_.recv();
    if (cfg_.wb_flush_delay > 0) {
      // Coalescing window: let back-to-back writes settle in the MCD tier
      // before the first brick pass (barriers bypass the worker, so sync
      // latency is unaffected). This is also what makes dirty lifetime a
      // testable quantity — the quorum-loss plan relies on extents staying
      // dirty across its crash instant.
      co_await loop_.sleep(cfg_.wb_flush_delay);
    }
    sim::SimMutex& mu = path_lock(path);
    co_await mu.lock();
    // ~WritebackTier destroys this worker frame while suspended — it
    // never resumes on a dead object.
    // NOLINTNEXTLINE(imca-coro-this): frame owned and destroyed by the tier
    const bool done = co_await flush_path_locked(path);
    mu.unlock();
    if (done) {
      requeue_streak_.erase(path);
      continue;
    }
    // Blocked on a foreign epoch or an unreachable brick: requeue with a
    // doubling backoff so a long outage doesn't hot-loop the worker.
    ++stats_.flush_requeues;
    std::size_t& streak = requeue_streak_[path];
    const SimDuration backoff =
        backoff_delay(kFlushBackoff, streak, kFlushBackoffCap);
    ++streak;
    co_await loop_.sleep(backoff);
    jobs_.send(std::move(path));
  }
}

void WritebackTier::note_rename(const std::string& from,
                                const std::string& to) {
  std::erase_if(lost_,
                [&](const WbLostExtent& l) { return l.path == to; });
  for (auto& l : lost_) {
    if (l.path == from) l.path = to;
  }
}

sim::Task<Expected<void>> WritebackTier::sync_path(std::string path) {
  const Fanout f = fanout(path);
  for (std::size_t round = 0; round < kBarrierRounds; ++round) {
    sim::SimMutex& mu = path_lock(path);
    co_await mu.lock();
    // sync_path() is awaited by the barrier caller, which owns the tier —
    // no destruction mid-suspension.
    // NOLINTNEXTLINE(imca-coro-this): frame awaited by the tier's owner
    const bool own_clear = co_await flush_path_locked(path);
    mu.unlock();
    if (own_clear) {
      auto merged = co_await read_index(path, f);
      bool waiting = false;
      for (const auto& m : merged) {
        if (m.writer == writer_id_) {
          // Ours but no longer pending: leftover of an incomplete removal.
          co_await retire_entry(path, f, m);
          continue;
        }
        auto payload = co_await fetch_payload(path, f, m);
        if (!payload) {
          // Flushed-or-lost: either way no surviving byte can reach the
          // brick through this entry, so retiring it cannot unorder a write.
          co_await retire_entry(path, f, m);
          continue;
        }
        waiting = true;  // genuinely dirty foreign extent: its owner drains it
      }
      if (!waiting) co_return Expected<void>{};
    }
    co_await loop_.sleep(backoff_delay(kFlushBackoff, round, kFlushBackoffCap));
  }
  ++stats_.barrier_timeouts;
  co_return Errc::kTimedOut;
}

sim::Task<Expected<void>> WritebackTier::sync_all() {
  std::vector<std::string> paths;
  paths.reserve(pending_.size());
  for (const auto& [path, dq] : pending_) {
    if (!dq.empty()) paths.push_back(path);
  }
  Errc err = Errc::kOk;
  for (const auto& path : paths) {
    auto r = co_await sync_path(path);
    if (!r) err = r.error();
  }
  if (err != Errc::kOk) co_return err;
  co_return Expected<void>{};
}

sim::Task<std::optional<Expected<Buffer>>> WritebackTier::overlay_read(
    std::string path, std::uint64_t offset, std::uint64_t len) {
  if (len == 0 || child_ == nullptr) co_return std::nullopt;
  const Fanout f = fanout(path);
  auto merged = co_await read_index(path, f);
  const std::uint64_t end = offset + len;
  std::vector<WbExtent> overlapping;  // keeps read_index's ascending epoch
  std::uint64_t floor = 0;  // dirty size floor: max end over ALL entries
  for (const auto& e : merged) {
    floor = std::max(floor, e.offset + e.length);
    if (e.offset < end && e.offset + e.length > offset) {
      overlapping.push_back(e);
    }
  }
  // Even with no extent under the range the overlay may still own the read:
  // a dirty extent past the range extends the file (stat already advertises
  // `floor`), so a read in the hole below it must see zeros — the brick,
  // not yet flushed to, would report a too-short file instead.
  if (overlapping.empty() && floor <= offset) co_return std::nullopt;
  ++stats_.overlay_reads;

  // Payloads BEFORE the base read: an extent whose payload is gone by now
  // was either flushed (removal happens-after the brick write, so the later
  // base read observes its bytes) or lost (accounted by its owner) — either
  // way skipping it is correct *because* the base read comes after.
  std::vector<std::optional<Buffer>> payloads(overlapping.size());
  for (std::size_t i = 0; i < overlapping.size(); ++i) {
    payloads[i] = co_await fetch_payload(path, f, overlapping[i]);
  }

  auto base = co_await (*child_)->read(path, offset, len);
  std::uint64_t base_len = 0;
  if (base) {
    base_len = base->size();
  } else if (base.error() != Errc::kNoEnt) {
    co_return Expected<Buffer>{base.error()};
  }
  // (kNoEnt with dirty extents: overlay over an empty base — defensive, the
  // create always went through the brick before any absorb.)

  std::uint64_t view_end =
      std::max(offset + base_len, std::min(end, floor));
  for (std::size_t i = 0; i < overlapping.size(); ++i) {
    if (!payloads[i]) continue;
    const auto& e = overlapping[i];
    view_end = std::max(view_end, std::min(end, e.offset + e.length));
  }
  if (view_end <= offset) co_return Expected<Buffer>{Buffer{}};  // at/after EOF

  // Materialize: base bytes, then dirty extents ascending epoch on top.
  // Gaps past the base EOF stay zero — exactly what the brick's holes read
  // as once the extents flush.
  std::vector<std::byte> bytes(static_cast<std::size_t>(view_end - offset),
                               std::byte{0});
  if (base && base_len > 0) {
    base->copy_to(0, std::span<std::byte>(bytes.data(),
                                          static_cast<std::size_t>(base_len)));
  }
  for (std::size_t i = 0; i < overlapping.size(); ++i) {
    if (!payloads[i]) continue;
    const WbExtent& e = overlapping[i];
    const std::uint64_t from = std::max(e.offset, offset);
    const std::uint64_t to = std::min(e.offset + e.length, view_end);
    if (to <= from) continue;
    payloads[i]->copy_to(
        static_cast<std::size_t>(from - e.offset),
        std::span<std::byte>(bytes.data() + (from - offset),
                             static_cast<std::size_t>(to - from)));
  }
  co_return Expected<Buffer>{Buffer::take(std::move(bytes))};
}

sim::Task<std::optional<std::uint64_t>> WritebackTier::dirty_size_floor(
    std::string path) {
  const Fanout f = fanout(path);
  auto merged = co_await read_index(path, f);
  std::uint64_t floor = 0;
  for (const auto& e : merged) floor = std::max(floor, e.offset + e.length);
  if (floor == 0) co_return std::nullopt;
  ++stats_.overlay_stats;
  co_return floor;
}

}  // namespace imca::core
