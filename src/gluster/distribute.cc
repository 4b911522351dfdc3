#include "gluster/distribute.h"

#include <cassert>
#include <string_view>

namespace imca::gluster {

namespace {
// fnv1a64's final multiply only carries a trailing-character delta into the
// low ~45 bits, so sibling paths ("/d/f0", "/d/f1", ...) share their top
// bits and would pile onto one arc of the ring. The splitmix64 finalizer
// gives full avalanche; both ring points and lookups go through it.
std::uint64_t ring_point(std::string_view s) noexcept {
  return splitmix64(fnv1a64(s));
}

constexpr std::size_t kVnodes = 128;  // ring points per subvolume
}  // namespace

void DistributeXlator::attach(std::unique_ptr<Xlator> xl) {
  Subvol sv;
  sv.id = next_id_++;
  sv.health = dynamic_cast<ServerHealth*>(xl.get());
  sv.xl = std::move(xl);
  const std::string base = "dht-" + std::to_string(sv.id) + "#";
  for (std::size_t j = 0; j < kVnodes; ++j) {
    ring_[ring_point(base + std::to_string(j))] = sv.id;
  }
  subvols_.push_back(std::move(sv));
}

std::size_t DistributeXlator::index_of_id(std::uint32_t id) const {
  for (std::size_t i = 0; i < subvols_.size(); ++i) {
    if (subvols_[i].id == id) return i;
  }
  return subvols_.size();
}

std::size_t DistributeXlator::owner_index(std::uint64_t point) const {
  assert(!ring_.empty());
  auto it = ring_.lower_bound(point);
  if (it == ring_.end()) it = ring_.begin();  // wrap around
  return index_of_id(it->second);
}

std::size_t DistributeXlator::subvol_of(const std::string& path) const {
  return owner_index(ring_point(path));
}

// Brownout health (see ReplicateXlator::server_down for the contract): the
// backend is down only when EVERY subvolume is down — that is the only
// state in which no write anywhere can commit, which is what makes serving
// cached data safe. One dead group with others live must NOT brown out: a
// write to a live group would commit behind the cache's back.
bool DistributeXlator::server_down() const {
  for (const auto& sv : subvols_) {
    if (sv.health == nullptr || !sv.health->server_down()) return false;
  }
  return !subvols_.empty();
}

SimTime DistributeXlator::server_down_since() const {
  if (!server_down()) return 0;
  SimTime t = 0;
  for (const auto& sv : subvols_) {
    t = std::max(t, sv.health->server_down_since());
  }
  return t;
}

sim::Task<bool> DistributeXlator::sweep_pending(std::string path) {
  auto it = pending_unlinks_.find(path);
  if (it == pending_unlinks_.end()) co_return true;
  const std::size_t idx = index_of_id(it->second);
  if (idx == subvols_.size()) {
    // The owing subvolume left the ring; the stale file went with it.
    pending_unlinks_.erase(path);
    ++stats_.pending_unlink_replays;
    co_return true;
  }
  auto r = co_await subvols_[idx].xl->unlink(path);
  if (r || r.error() == Errc::kNoEnt) {
    pending_unlinks_.erase(path);
    ++stats_.pending_unlink_replays;
    co_return true;
  }
  co_return false;
}

// --- plain fops ------------------------------------------------------------

sim::Task<Expected<store::Attr>> DistributeXlator::create(std::string path,
                                                          std::uint32_t mode) {
  if (pending_unlinks_.count(path) != 0) {
    // The name is logically free but a stale file may still sit on the old
    // owner; it must be reaped before the name can be reused.
    if (!co_await sweep_pending(path)) co_return Errc::kBusy;
  }
  auto r = co_await owner(path).create(path, mode);
  if (r) live_paths_.insert(path);
  co_return r;
}

sim::Task<Expected<store::Attr>> DistributeXlator::open(std::string path) {
  if (pending_unlinks_.count(path) != 0) {
    (void)co_await sweep_pending(path);
    co_return Errc::kNoEnt;
  }
  auto r = co_await owner(path).open(path);
  if (r) live_paths_.insert(path);
  co_return r;
}

sim::Task<Expected<void>> DistributeXlator::close(std::string path) {
  if (pending_unlinks_.count(path) != 0) co_return Errc::kNoEnt;
  co_return co_await owner(path).close(path);
}

sim::Task<Expected<store::Attr>> DistributeXlator::stat(std::string path) {
  if (pending_unlinks_.count(path) != 0) {
    (void)co_await sweep_pending(path);
    co_return Errc::kNoEnt;
  }
  co_return co_await owner(path).stat(path);
}

sim::Task<Expected<Buffer>> DistributeXlator::read(std::string path,
                                                   std::uint64_t offset,
                                                   std::uint64_t len) {
  if (pending_unlinks_.count(path) != 0) {
    (void)co_await sweep_pending(path);
    co_return Errc::kNoEnt;
  }
  co_return co_await owner(path).read(path, offset, len);
}

sim::Task<Expected<std::uint64_t>> DistributeXlator::write(std::string path,
                                                           std::uint64_t offset,
                                                           Buffer data) {
  if (pending_unlinks_.count(path) != 0) {
    (void)co_await sweep_pending(path);
    co_return Errc::kNoEnt;
  }
  co_return co_await owner(path).write(path, offset, std::move(data));
}

sim::Task<Expected<void>> DistributeXlator::unlink(std::string path) {
  if (pending_unlinks_.count(path) != 0) {
    (void)co_await sweep_pending(path);
    co_return Errc::kNoEnt;  // logically gone already
  }
  auto r = co_await owner(path).unlink(path);
  if (r) live_paths_.erase(path);
  co_return r;
}

sim::Task<Expected<void>> DistributeXlator::truncate(std::string path,
                                                     std::uint64_t size) {
  if (pending_unlinks_.count(path) != 0) {
    (void)co_await sweep_pending(path);
    co_return Errc::kNoEnt;
  }
  co_return co_await owner(path).truncate(path, size);
}

sim::Task<Expected<void>> DistributeXlator::fsync(std::string path) {
  if (pending_unlinks_.count(path) != 0) {
    (void)co_await sweep_pending(path);
    co_return Errc::kNoEnt;
  }
  co_return co_await owner(path).fsync(path);
}

// --- rename ----------------------------------------------------------------

sim::Task<Expected<void>> DistributeXlator::stage_commit(Xlator* dst,
                                                         std::string path,
                                                         std::uint32_t mode,
                                                         Buffer data) {
  const std::string stage = stage_of(path);
  // A crashed earlier attempt may have left an orphan stage file behind.
  (void)co_await dst->unlink(stage);
  auto c = co_await dst->create(stage, mode);
  if (!c) co_return c.error();
  if (!data.empty()) {
    auto w = co_await dst->write(stage, 0, std::move(data));
    if (!w) co_return w.error();
  }
  // The commit point: one brick-local atomic swap. `path` either keeps its
  // old contents or has the complete new ones — never a torn in-between.
  auto r = co_await dst->rename(stage, path);
  if (!r) co_return r.error();
  ++stats_.stage_commits;
  co_return Expected<void>{};
}

sim::Task<Expected<void>> DistributeXlator::rename(std::string from,
                                                   std::string to) {
  if (pending_unlinks_.count(from) != 0) {
    (void)co_await sweep_pending(from);
    co_return Errc::kNoEnt;
  }
  if (pending_unlinks_.count(to) != 0) {
    if (!co_await sweep_pending(to)) co_return Errc::kBusy;
  }
  const std::size_t src = subvol_of(from);
  const std::size_t dst = subvol_of(to);
  if (src == dst) {
    auto r = co_await subvols_[src].xl->rename(from, to);
    if (r) {
      live_paths_.erase(from);
      live_paths_.insert(to);
    }
    co_return r;
  }

  ++stats_.cross_renames;
  // Crash-safe order: read source, stage + atomically commit the target,
  // and only then retire the source name.
  auto attr = co_await subvols_[src].xl->stat(from);
  if (!attr) co_return attr.error();
  Buffer data;
  if (attr->size > 0) {
    auto r = co_await subvols_[src].xl->read(from, 0, attr->size);
    if (!r) co_return r.error();
    data = std::move(*r);
  }
  auto commit =
      co_await stage_commit(subvols_[dst].xl.get(), to, attr->mode,
                            std::move(data));
  if (!commit) co_return commit.error();
  live_paths_.insert(to);
  auto u = co_await subvols_[src].xl->unlink(from);
  live_paths_.erase(from);
  if (!u && u.error() != Errc::kNoEnt) {
    // The rename IS committed (`to` swapped in atomically); only the old
    // name's cleanup is owed. Hide it and reap it on the next touch.
    pending_unlinks_[from] = subvols_[src].id;
    ++stats_.pending_unlinks;
  }
  co_return Expected<void>{};
}

// --- rebalance -------------------------------------------------------------

sim::Task<Expected<std::uint64_t>> DistributeXlator::migrate_path(
    Xlator* src, Xlator* dst, std::string path) {
  auto attr = co_await src->stat(path);
  if (!attr) {
    if (attr.error() == Errc::kNoEnt) co_return 0;  // nothing to move
    co_return attr.error();
  }
  Buffer data;
  if (attr->size > 0) {
    auto r = co_await src->read(path, 0, attr->size);
    if (!r) co_return r.error();
    data = std::move(*r);
  }
  auto commit = co_await stage_commit(dst, path, attr->mode, std::move(data));
  if (!commit) co_return commit.error();
  auto u = co_await src->unlink(path);
  if (!u && u.error() != Errc::kNoEnt) co_return u.error();
  co_return attr->size;
}

sim::Task<Expected<RebalanceReport>> DistributeXlator::add_brick(
    std::unique_ptr<Xlator> sv) {
  // Owners under the old ring, before the new points land.
  std::map<std::string, std::size_t> old_owner;
  for (const auto& p : live_paths_) old_owner[p] = subvol_of(p);
  attach(std::move(sv));

  RebalanceReport rep;
  for (const auto& [path, was] : old_owner) {
    const std::size_t now = subvol_of(path);
    if (now == was) continue;
    auto moved = co_await migrate_path(subvols_[was].xl.get(),
                                       subvols_[now].xl.get(), path);
    if (!moved) co_return moved.error();
    ++rep.moved;
    rep.bytes += *moved;
    ++stats_.rebalanced_paths;
    stats_.rebalance_bytes += *moved;
  }
  co_return rep;
}

sim::Task<Expected<RebalanceReport>> DistributeXlator::remove_brick(
    std::size_t index) {
  assert(index < subvols_.size() && subvols_.size() > 1);
  const std::uint32_t victim = subvols_[index].id;
  std::vector<std::string> owned;
  for (const auto& p : live_paths_) {
    if (subvol_of(p) == index) owned.push_back(p);
  }
  // Retire the victim's ring points; every owned path now hashes elsewhere.
  for (auto it = ring_.begin(); it != ring_.end();) {
    it = it->second == victim ? ring_.erase(it) : std::next(it);
  }

  RebalanceReport rep;
  for (const auto& path : owned) {
    const std::size_t now = subvol_of(path);
    auto moved = co_await migrate_path(subvols_[index].xl.get(),
                                       subvols_[now].xl.get(), path);
    if (!moved) co_return moved.error();
    ++rep.moved;
    rep.bytes += *moved;
    ++stats_.rebalanced_paths;
    stats_.rebalance_bytes += *moved;
  }
  subvols_.erase(subvols_.begin() + static_cast<std::ptrdiff_t>(index));
  co_return rep;
}

}  // namespace imca::gluster
