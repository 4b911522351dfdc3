#include "gluster/replicate.h"

#include <algorithm>
#include <cassert>

namespace imca::gluster {

ReplicateXlator::ReplicateXlator(
    sim::EventLoop& loop, std::vector<std::unique_ptr<ProtocolClient>> replicas)
    : loop_(loop),
      replicas_(std::move(replicas)),
      quorum_(replicas_.size() / 2 + 1) {
  assert(!replicas_.empty());
  dirty_.resize(replicas_.size());
  was_down_.assign(replicas_.size(), false);
  healing_.assign(replicas_.size(), false);
}

ReplicateXlator::~ReplicateXlator() = default;

// --- quorum bookkeeping ----------------------------------------------------

ReplicateXlator::Quorum ReplicateXlator::commit(
    const std::vector<std::string>& paths, const std::vector<Errc>& child_err) {
  ++stats_.mutations;
  const std::size_t k = replicas_.size();
  std::vector<bool> was_fresh(k, true);
  std::size_t acks = 0;
  std::size_t fresh_acks = 0;
  for (std::size_t i = 0; i < k; ++i) {
    for (const auto& p : paths) was_fresh[i] = was_fresh[i] && fresh(i, p);
    if (child_err[i] == Errc::kOk) {
      ++acks;
      if (was_fresh[i]) ++fresh_acks;
    }
  }

  Quorum q;
  if (acks >= quorum_ && fresh_acks > 0) {
    q.committed = true;
    for (std::size_t i = 0; i < k; ++i) {
      if (child_err[i] == Errc::kOk && was_fresh[i]) {
        q.winner = i;
        break;
      }
    }
    for (const auto& p : paths) {
      ++epochs_[p];
      for (std::size_t i = 0; i < k; ++i) {
        if (child_err[i] == Errc::kOk && was_fresh[i]) {
          dirty_[i].erase(p);
        } else {
          mark_dirty(i, p);
        }
      }
    }
    if (acks < k) ++stats_.partial_acks;
    return q;
  }

  // Unanimous definite rejection (every child refused with the same
  // non-infrastructure error, e.g. unlink of a name nobody holds): the
  // replica set is still in agreement and nothing was applied anywhere.
  // That is a correct answer, not a quorum failure — report it untainted.
  bool unanimous = acks == 0 && !retryable(child_err[0]);
  for (std::size_t i = 1; unanimous && i < k; ++i) {
    unanimous = child_err[i] == child_err[0];
  }
  if (unanimous) {
    q.err = child_err[0];
    return q;
  }

  // Quorum failed: nothing commits, but children that DID apply the op now
  // diverge from the committed state — taint them so heal rolls them back.
  ++stats_.quorum_short_writes;
  for (const auto& p : paths) {
    for (std::size_t i = 0; i < k; ++i) {
      if (child_err[i] == Errc::kOk) mark_dirty(i, p);
    }
  }
  for (std::size_t i = 0; i < k; ++i) {
    if (was_fresh[i] && child_err[i] != Errc::kOk) {
      q.err = child_err[i];
      return q;
    }
  }
  for (std::size_t i = 0; i < k; ++i) {
    if (child_err[i] != Errc::kOk) {
      q.err = child_err[i];
      return q;
    }
  }
  return q;
}

void ReplicateXlator::maybe_forget(const std::string& path) {
  for (const auto& d : dirty_) {
    if (d.count(path) != 0) return;
  }
  epochs_.erase(path);
  last_read_child_.erase(path);
}

// --- read-child selection --------------------------------------------------

std::size_t ReplicateXlator::pick_read_child(const std::string& path) {
  const std::size_t k = replicas_.size();
  const std::size_t aff = fnv1a64(path) % k;
  for (std::size_t d = 0; d < k; ++d) {
    const std::size_t i = (aff + d) % k;
    if (fresh(i, path) && !replicas_[i]->server_down()) return i;
  }
  // Every fresh copy is behind a down server: ride the probe machinery of
  // the first fresh child — its deadline/retry loop will catch a restart.
  for (std::size_t d = 0; d < k; ++d) {
    const std::size_t i = (aff + d) % k;
    if (fresh(i, path)) {
      ++stats_.reads_degraded;
      return i;
    }
  }
  // No fresh copy anywhere (only possible after a failed-quorum mutation).
  ++stats_.reads_degraded;
  return aff;
}

void ReplicateXlator::note_read_child(const std::string& path,
                                      std::size_t child) {
  auto it = last_read_child_.find(path);
  if (it != last_read_child_.end() && it->second != child) {
    ++stats_.read_child_switches;
  }
  last_read_child_[path] = child;
}

// --- health ----------------------------------------------------------------

// Health here answers CMCache's brownout question — "may cached data be
// served in place of the backend?" — whose safety argument is: while the
// backend is down, nothing can commit, so the cache still equals the last
// committed state. With replication that argument only holds when EVERY
// child is unreachable (one live child short of quorum still can't commit).
// Below-quorum-but-reachable is NOT down: reads fail over to any live
// child, and write unavailability surfaces per-op as a quorum error.
bool ReplicateXlator::server_down() const {
  for (const auto& r : replicas_) {
    if (!r->server_down()) return false;
  }
  return true;
}

SimTime ReplicateXlator::server_down_since() const {
  // The instant the backend became fully unreachable = when the last
  // still-up child went down.
  SimTime t = 0;
  for (const auto& r : replicas_) {
    if (!r->server_down()) return 0;
    t = std::max(t, r->server_down_since());
  }
  return t;
}

sim::SimMutex& ReplicateXlator::path_lock(const std::string& path) {
  auto it = path_locks_.find(path);
  if (it == path_locks_.end()) {
    it = path_locks_.emplace(path, std::make_unique<sim::SimMutex>(loop_))
             .first;
  }
  return *it->second;
}

// --- self-heal -------------------------------------------------------------

void ReplicateXlator::poll_rejoins() {
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    const bool down = replicas_[i]->server_down();
    if (was_down_[i] && !down && !dirty_[i].empty()) spawn_heal(i);
    was_down_[i] = down;
  }
}

void ReplicateXlator::spawn_heal(std::size_t child) {
  if (healing_[child]) return;
  healing_[child] = true;
  ++stats_.heals_scheduled;
  loop_.spawn(
      heal_worker(this, std::weak_ptr<const bool>(alive_), child));
}

sim::Task<void> ReplicateXlator::heal_worker(ReplicateXlator* self,
                                             std::weak_ptr<const bool> alive,
                                             std::size_t child) {
  // Drain the child's dirty set; each heal_path call suspends, so re-check
  // the liveness token before touching members again.
  for (;;) {
    if (alive.expired()) co_return;
    if (self->replicas_[child]->server_down()) break;
    auto it = self->dirty_[child].begin();
    if (it == self->dirty_[child].end()) break;
    const std::string path = *it;
    const bool healed = co_await self->heal_path(child, path);
    if (alive.expired()) co_return;
    // No reachable fresh source (or a write raced the copy): stop; the next
    // rejoin edge, open() or heal_all() picks the path up again.
    if (!healed) break;
  }
  if (!alive.expired()) self->healing_[child] = false;
}

sim::Task<bool> ReplicateXlator::heal_path(std::size_t child,
                                           std::string path) {
  sim::SimMutex& mu = path_lock(path);
  co_await mu.lock();
  const bool healed = co_await heal_path_locked(child, path);
  mu.unlock();
  if (healed) maybe_forget(path);
  co_return healed;
}

sim::Task<bool> ReplicateXlator::heal_path_locked(std::size_t child,
                                                  std::string path) {
  if (fresh(child, path)) co_return true;  // healed while we waited
  const std::size_t k = replicas_.size();
  std::size_t src = k;
  for (std::size_t i = 0; i < k; ++i) {
    if (i != child && fresh(i, path) && !replicas_[i]->server_down()) {
      src = i;
      break;
    }
  }
  if (src == k) {
    for (std::size_t i = 0; i < k; ++i) {
      if (i != child && fresh(i, path)) {
        src = i;
        break;
      }
    }
  }
  if (src == k) co_return false;  // no fresh copy to heal from

  const std::uint64_t e0 = epoch_of(path);
  auto attr = co_await replicas_[src]->stat(path);
  if (!attr) {
    if (attr.error() != Errc::kNoEnt) co_return false;
    // The fresh side deleted the file: heal = delete the stale copy.
    auto u = co_await replicas_[child]->unlink(path);
    if (!u && u.error() != Errc::kNoEnt) co_return false;
  } else {
    Buffer data;
    if (attr->size > 0) {
      auto r = co_await replicas_[src]->read(path, 0, attr->size);
      if (!r) co_return false;
      data = std::move(*r);
    }
    // Blind create, tolerating kExist — deliberately NOT a stat probe. Every
    // fop sent to the stale child runs through its full server stack, and a
    // stat would make its SMCache hook publish the stale local size into the
    // shared MCD array, poisoning the cached stat for every mount. create
    // has no publish hook, so it is the one safe existence check.
    auto c = co_await replicas_[child]->create(path, attr->mode);
    if (!c && c.error() != Errc::kExist) co_return false;
    auto t = co_await replicas_[child]->truncate(path, attr->size);
    if (!t) co_return false;
    if (!data.empty()) {
      const std::uint64_t n = data.size();
      auto w = co_await replicas_[child]->write(path, 0, std::move(data));
      if (!w) co_return false;
      stats_.heal_bytes_copied += n;
    }
  }
  // Commit freshness only if no mutation landed while we were copying (the
  // per-path lock keeps client mutations out, but a failed-quorum taint or
  // an unlocked direct sibling op would show up as an epoch move).
  if (epoch_of(path) != e0 || !fresh(src, path)) co_return false;
  dirty_[child].erase(path);
  ++stats_.heals_completed;
  co_return true;
}

sim::Task<HealReport> ReplicateXlator::heal_all() {
  HealReport rep;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      const std::vector<std::string> todo(dirty_[i].begin(),
                                          dirty_[i].end());
      for (const auto& p : todo) {
        if (fresh(i, p)) continue;
        if (co_await heal_path(i, p)) {
          ++rep.healed;
          progress = true;
        }
      }
    }
  }
  for (const auto& d : dirty_) rep.remaining += d.size();
  co_return rep;
}

// --- the two fop bodies --------------------------------------------------

template <typename T, typename Make>
sim::Task<Expected<T>> ReplicateXlator::mutate(std::vector<std::string> paths,
                                               Make make) {
  // Lexicographic lock order, so two concurrent renames (a->b, b->a) cannot
  // deadlock.
  std::vector<std::string> order = paths;
  std::sort(order.begin(), order.end());
  order.erase(std::unique(order.begin(), order.end()), order.end());
  std::vector<sim::SimMutex*> locks;
  for (const auto& p : order) locks.push_back(&path_lock(p));
  for (sim::SimMutex* mu : locks) co_await mu->lock();
  std::vector<sim::Task<Expected<T>>> fops;
  fops.reserve(replicas_.size());
  for (auto& child : replicas_) fops.push_back(make(*child));
  auto results = co_await sim::gather(loop_, std::move(fops));
  std::vector<Errc> errs;
  errs.reserve(results.size());
  for (const auto& r : results) errs.push_back(r.error());
  const Quorum q = commit(paths, errs);
  for (auto it = locks.rbegin(); it != locks.rend(); ++it) (*it)->unlock();
  if (!q.committed) co_return q.err;
  co_return std::move(results[q.winner]);
}

template <typename T, typename Make>
sim::Task<Expected<T>> ReplicateXlator::read_fresh(std::string path,
                                                   Make make) {
  const std::size_t first = pick_read_child(path);
  auto r = co_await make(*replicas_[first]);
  if (r || !retryable(r.error())) {
    note_read_child(path, first);
    co_return r;
  }
  for (std::size_t d = 1; d < replicas_.size(); ++d) {
    const std::size_t i = (first + d) % replicas_.size();
    if (!fresh(i, path)) continue;
    auto r2 = co_await make(*replicas_[i]);
    if (r2 || !retryable(r2.error())) {
      note_read_child(path, i);
      co_return r2;
    }
  }
  co_return r;
}

// --- fops ------------------------------------------------------------------
//
// poll_rejoins() runs first in every public fop, before any lock or heal:
// that is when a fop notices a child came back.

sim::Task<Expected<store::Attr>> ReplicateXlator::create(std::string path,
                                                         std::uint32_t mode) {
  poll_rejoins();
  const auto fop = [&](ProtocolClient& c) { return c.create(path, mode); };
  std::vector<std::string> paths{path};
  auto r = co_await mutate<store::Attr>(std::move(paths), fop);
  co_return r;
}

sim::Task<Expected<store::Attr>> ReplicateXlator::open(std::string path) {
  poll_rejoins();
  // Lookup-triggered heal, as in AFR: bring reachable stale copies of this
  // path back to byte-equality before handing out the handle.
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (!fresh(i, path) && !replicas_[i]->server_down()) {
      (void)co_await heal_path(i, path);
    }
  }
  const auto fop = [&](ProtocolClient& c) { return c.open(path); };
  auto r = co_await read_fresh<store::Attr>(path, fop);
  co_return r;
}

sim::Task<Expected<void>> ReplicateXlator::close(std::string path) {
  poll_rejoins();
  co_return co_await replicas_[pick_read_child(path)]->close(path);
}

sim::Task<Expected<store::Attr>> ReplicateXlator::stat(std::string path) {
  poll_rejoins();
  const auto fop = [&](ProtocolClient& c) { return c.stat(path); };
  auto r = co_await read_fresh<store::Attr>(path, fop);
  co_return r;
}

sim::Task<Expected<Buffer>> ReplicateXlator::read(std::string path,
                                                  std::uint64_t offset,
                                                  std::uint64_t len) {
  poll_rejoins();
  ++stats_.reads;
  const auto fop = [&](ProtocolClient& c) {
    return c.read(path, offset, len);
  };
  auto r = co_await read_fresh<Buffer>(path, fop);
  co_return r;
}

sim::Task<Expected<std::uint64_t>> ReplicateXlator::write(std::string path,
                                                          std::uint64_t offset,
                                                          Buffer data) {
  poll_rejoins();
  const auto fop = [&](ProtocolClient& c) {
    return c.write(path, offset, data);
  };
  std::vector<std::string> paths{path};
  auto r = co_await mutate<std::uint64_t>(std::move(paths), fop);
  co_return r;
}

sim::Task<Expected<void>> ReplicateXlator::unlink(std::string path) {
  poll_rejoins();
  const auto fop = [&](ProtocolClient& c) { return c.unlink(path); };
  std::vector<std::string> paths{path};
  auto r = co_await mutate<void>(std::move(paths), fop);
  if (r) maybe_forget(path);
  co_return r;
}

sim::Task<Expected<void>> ReplicateXlator::truncate(std::string path,
                                                    std::uint64_t size) {
  poll_rejoins();
  const auto fop = [&](ProtocolClient& c) { return c.truncate(path, size); };
  std::vector<std::string> paths{path};
  auto r = co_await mutate<void>(std::move(paths), fop);
  co_return r;
}

sim::Task<Expected<void>> ReplicateXlator::rename(std::string from,
                                                  std::string to) {
  poll_rejoins();
  const auto fop = [&](ProtocolClient& c) { return c.rename(from, to); };
  std::vector<std::string> paths{from, to};
  auto r = co_await mutate<void>(std::move(paths), fop);
  if (r) maybe_forget(from);
  co_return r;
}

sim::Task<Expected<void>> ReplicateXlator::fsync(std::string path) {
  poll_rejoins();
  // Barrier, not a mutation: fan out to every child, succeed on a quorum of
  // acks. No commit() — fsync changes no replica state, so a child that
  // missed it is not dirty and no epoch moves.
  std::vector<sim::Task<Expected<void>>> fops;
  fops.reserve(replicas_.size());
  for (auto& child : replicas_) fops.push_back(child->fsync(path));
  const auto results = co_await sim::gather(loop_, std::move(fops));
  std::size_t acks = 0;
  Errc err = Errc::kTimedOut;
  for (const auto& r : results) {
    const Errc e = r.error();
    if (e == Errc::kOk) {
      ++acks;
    } else if (!retryable(e)) {
      err = e;  // a definite answer (e.g. kNoEnt) beats a transport guess
    } else if (err == Errc::kTimedOut) {
      err = e;
    }
  }
  if (acks >= quorum_) co_return Expected<void>{};
  co_return err;
}

sim::Task<Expected<Buffer>> ReplicateXlator::read_from(std::size_t i,
                                                       std::string path,
                                                       std::uint64_t offset,
                                                       std::uint64_t len) {
  co_return co_await replicas_.at(i)->read(std::move(path), offset, len);
}

sim::Task<Expected<store::Attr>> ReplicateXlator::stat_from(std::size_t i,
                                                            std::string path) {
  co_return co_await replicas_.at(i)->stat(std::move(path));
}

}  // namespace imca::gluster
