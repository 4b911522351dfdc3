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
  const std::size_t index = subvols_.size();
  const std::string base = "dht-" + std::to_string(index) + "#";
  for (std::size_t j = 0; j < kVnodes; ++j) {
    ring_[ring_point(base + std::to_string(j))] = index;
  }
  ServerHealth* health = dynamic_cast<ServerHealth*>(xl.get());
  subvols_.push_back(Subvol{std::move(xl), health});
}

std::size_t DistributeXlator::subvol_of(const std::string& path) const {
  assert(!ring_.empty());
  auto it = ring_.lower_bound(ring_point(path));
  if (it == ring_.end()) it = ring_.begin();  // wrap around
  return it->second;
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
  auto r = co_await subvols_[it->second].xl->unlink(path);
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
  // Bind the result before returning it: built with GCC 12, `co_return
  // co_await` after the co_await in the condition above never resumes.
  auto r = co_await owner(path).create(path, mode);
  co_return r;
}

template <typename T>
sim::Task<T> DistributeXlator::route(std::string path, sim::Task<T> fop) {
  if (pending_unlinks_.count(path) != 0) {
    // A renamed-away source is logically gone already: reap the stale file
    // and answer as if it never existed.
    (void)co_await sweep_pending(path);
    co_return Errc::kNoEnt;
  }
  auto r = co_await std::move(fop);
  co_return r;
}

sim::Task<Expected<store::Attr>> DistributeXlator::open(std::string path) {
  return route(path, owner(path).open(path));
}

sim::Task<Expected<void>> DistributeXlator::close(std::string path) {
  if (pending_unlinks_.count(path) != 0) co_return Errc::kNoEnt;
  co_return co_await owner(path).close(path);
}

sim::Task<Expected<store::Attr>> DistributeXlator::stat(std::string path) {
  return route(path, owner(path).stat(path));
}

sim::Task<Expected<Buffer>> DistributeXlator::read(std::string path,
                                                   std::uint64_t offset,
                                                   std::uint64_t len) {
  return route(path, owner(path).read(path, offset, len));
}

sim::Task<Expected<std::uint64_t>> DistributeXlator::write(std::string path,
                                                           std::uint64_t offset,
                                                           Buffer data) {
  return route(path, owner(path).write(path, offset, std::move(data)));
}

sim::Task<Expected<void>> DistributeXlator::unlink(std::string path) {
  return route(path, owner(path).unlink(path));
}

sim::Task<Expected<void>> DistributeXlator::truncate(std::string path,
                                                     std::uint64_t size) {
  return route(path, owner(path).truncate(path, size));
}

sim::Task<Expected<void>> DistributeXlator::fsync(std::string path) {
  return route(path, owner(path).fsync(path));
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
    auto r = co_await subvols_[src].xl->rename(from, to);  // see create()
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
  auto u = co_await subvols_[src].xl->unlink(from);
  if (!u && u.error() != Errc::kNoEnt) {
    // The rename IS committed (`to` swapped in atomically); only the old
    // name's cleanup is owed. Hide it and reap it on the next touch.
    pending_unlinks_[from] = src;
    ++stats_.pending_unlinks;
  }
  co_return Expected<void>{};
}

}  // namespace imca::gluster
