#include "lustre/mds.h"

namespace imca::lustre {
namespace {

// Per metadata op / lock op.
constexpr SimDuration kMdsOpCpu = 70 * kMicro;
// The MDS has its own small array.
constexpr std::size_t kMdsRaidMembers = 2;
constexpr std::uint64_t kMdsPageCacheBytes = 4 * kGiB;

}  // namespace

MetadataServer::MetadataServer(net::RpcSystem& rpc, net::NodeId node)
    : rpc_(rpc),
      node_(node),
      dev_(rpc.fabric().loop(), kMdsRaidMembers, kMdsPageCacheBytes,
           "mds" + std::to_string(node)),
      lock_mutex_(rpc.fabric().loop()) {}

sim::Task<void> MetadataServer::charge_op() {
  co_await rpc_.fabric().node(node_).cpu().use(kMdsOpCpu);
}

sim::Task<Expected<store::Attr>> MetadataServer::create(
    std::string path) {
  co_await charge_op();
  auto attr = ns_.create(path, rpc_.fabric().loop().now());
  if (!attr) co_return attr.error();
  co_await dev_.meta(attr->inode);
  co_return *attr;
}

sim::Task<Expected<store::Attr>> MetadataServer::stat(std::string path) {
  co_await charge_op();
  auto attr = ns_.stat(path);
  if (!attr) co_return attr.error();
  co_await dev_.meta(attr->inode);
  co_return *attr;
}

sim::Task<Expected<void>> MetadataServer::unlink(std::string path) {
  co_await charge_op();
  auto attr = ns_.stat(path);
  if (!attr) co_return attr.error();
  auto r = ns_.unlink(path);
  if (!r) co_return r;
  dev_.invalidate(attr->inode);
  locks_.erase(path);
  co_return Expected<void>{};
}

sim::Task<Expected<void>> MetadataServer::set_size(std::string path,
                                                   std::uint64_t size) {
  co_await charge_op();
  auto attr = ns_.stat(path);
  if (!attr) co_return Errc::kNoEnt;
  // Extending writes record the new size; overwrites still bump mtime.
  const std::uint64_t new_size = size > attr->size ? size : attr->size;
  co_return ns_.truncate(path, new_size, rpc_.fabric().loop().now());
}

sim::Task<Expected<void>> MetadataServer::truncate(std::string path,
                                                   std::uint64_t size) {
  co_await charge_op();
  co_return ns_.truncate(path, size, rpc_.fabric().loop().now());
}

sim::Task<Expected<void>> MetadataServer::rename(std::string from,
                                                 std::string to) {
  co_await charge_op();
  auto r = ns_.rename(from, to, rpc_.fabric().loop().now());
  if (r) {
    // Lock state follows the name.
    auto it = locks_.find(from);
    if (it != locks_.end()) {
      locks_[to] = std::move(it->second);
      locks_.erase(it);
    }
  }
  co_return r;
}

void MetadataServer::register_client(std::uint32_t client, RevokeFn revoke) {
  clients_[client] = std::move(revoke);
}

void MetadataServer::drop_client_locks(std::uint32_t client) {
  for (auto& [path, state] : locks_) {
    state.holders.erase(client);
  }
}

sim::Task<Expected<void>> MetadataServer::lock(std::string path,
                                               std::uint32_t client,
                                               LockMode mode) {
  ++lock_requests_;
  co_await charge_op();
  // Lock-manager state transitions are serialized, queueing concurrent
  // requesters — the scalability cost the paper attributes to coherent
  // client caches.
  auto guard = co_await sim::ScopedLock::acquire(lock_mutex_);

  LockState& state = locks_[path];
  // A holder conflicts when either side wants exclusivity (PW).
  const auto conflicts = [&](std::uint32_t holder, LockMode held) {
    return holder != client &&
           (mode == LockMode::kWrite || held == LockMode::kWrite);
  };

  // Revoke every conflicting holder: one callback round trip each, during
  // which the holder drops (and, for writers, flushes) its cache.
  const auto holders = state.holders;
  for (const auto& [h, held] : holders) {
    if (!conflicts(h, held)) continue;
    ++revocations_;
    // Blocking-callback round trip MDS -> holder -> MDS.
    co_await rpc_.fabric().transfer(node_, h, 128);
    auto it = clients_.find(h);
    if (it != clients_.end()) {
      co_await it->second(path, mode);
    }
    co_await rpc_.fabric().transfer(h, node_, 128);
    state.holders.erase(h);
  }

  state.holders[client] = mode;
  co_return Expected<void>{};
}

}  // namespace imca::lustre
