#include "lustre/client.h"

#include "common/hash.h"
#include "sim/sync.h"

namespace imca::lustre {
namespace {

// Kernel VFS path, no FUSE.
constexpr SimDuration kClientOpCpu = 4 * kMicro;
// Small-op wire sizes.
constexpr std::uint64_t kRpcRequestBytes = 128;
constexpr std::uint64_t kRpcReplyBytes = 160;

}  // namespace

LustreClient::LustreClient(net::RpcSystem& rpc, net::NodeId self,
                           MetadataServer& mds,
                           std::vector<DataServer*> data_servers,
                           LustreClientParams params)
    : rpc_(rpc),
      self_(self),
      mds_(mds),
      ds_(std::move(data_servers)),
      stripes_(ds_.size()),
      pages_(params.cache_bytes) {
  // Register the LDLM blocking callback: drop our pages when revoked. The
  // lambda only forwards to the named member coroutine (IMCA-CORO-LAMBDA).
  mds_.register_client(self_, [this](std::string path, LockMode requested) {
    return on_lock_revoked(std::move(path), requested);
  });
}

sim::Task<void> LustreClient::on_lock_revoked(std::string path,
                                              LockMode requested) {
  pages_.invalidate(cache_key(path));
  lock_cache_.erase(path);
  // Writes are write-through in this client, so there is nothing dirty
  // to flush; a flush would otherwise be charged here before the lock
  // moves.
  if (revoke_hook_) co_await revoke_hook_(path, requested);
}

std::uint64_t LustreClient::cache_key(const std::string& path) const {
  return fnv1a64(path);
}

sim::Task<void> LustreClient::charge_rpc(net::NodeId peer,
                                         std::uint64_t req_bytes,
                                         std::uint64_t reply_bytes) {
  co_await rpc_.fabric().node(self_).cpu().use(kClientOpCpu);
  co_await rpc_.fabric().transfer(self_, peer, req_bytes);
  co_await rpc_.fabric().transfer(peer, self_, reply_bytes);
}

sim::Task<Expected<void>> LustreClient::ensure_lock(std::string path,
                                                    LockMode mode) {
  auto it = lock_cache_.find(path);
  if (it != lock_cache_.end() &&
      (it->second == mode || it->second == LockMode::kWrite)) {
    co_return Expected<void>{};  // lock already cached locally
  }
  // Lock RPC to the MDS (the enqueue round trip).
  co_await charge_rpc(mds_.node(), kRpcRequestBytes, kRpcReplyBytes);
  auto r = co_await mds_.lock(path, self_, mode);
  if (!r) co_return r;
  lock_cache_[path] = mode;
  co_return Expected<void>{};
}

Expected<std::string> LustreClient::path_of(fsapi::OpenFile file) const {
  auto it = fd_table_.find(file.fd);
  if (it == fd_table_.end()) return Errc::kBadF;
  return it->second;
}

sim::Task<Expected<fsapi::OpenFile>> LustreClient::create(std::string path) {
  co_await charge_rpc(mds_.node(), kRpcRequestBytes, kRpcReplyBytes);
  auto attr = co_await mds_.create(path);
  if (!attr) co_return attr.error();
  const std::uint64_t fd = next_fd_++;
  fd_table_.emplace(fd, std::move(path));
  co_return fsapi::OpenFile{fd};
}

sim::Task<Expected<fsapi::OpenFile>> LustreClient::open(std::string path) {
  co_await charge_rpc(mds_.node(), kRpcRequestBytes, kRpcReplyBytes);
  auto attr = co_await mds_.stat(path);
  if (!attr) co_return attr.error();
  const std::uint64_t fd = next_fd_++;
  fd_table_.emplace(fd, std::move(path));
  co_return fsapi::OpenFile{fd};
}

sim::Task<Expected<void>> LustreClient::close(fsapi::OpenFile file) {
  auto path = path_of(file);
  if (!path) co_return path.error();
  co_await rpc_.fabric().node(self_).cpu().use(kClientOpCpu);
  fd_table_.erase(file.fd);
  // Locks and pages stay cached after close — that is the point of a
  // coherent client cache.
  co_return Expected<void>{};
}

sim::Task<Expected<store::Attr>> LustreClient::stat(std::string path) {
  co_await charge_rpc(mds_.node(), kRpcRequestBytes, kRpcReplyBytes);
  co_return co_await mds_.stat(path);
}

sim::Task<Expected<Buffer>> LustreClient::read(fsapi::OpenFile file,
                                               std::uint64_t offset,
                                               std::uint64_t len) {
  auto path = path_of(file);
  if (!path) co_return path.error();
  if (auto l = co_await ensure_lock(*path, LockMode::kRead); !l) {
    co_return l.error();
  }

  // File size comes from the MDS view of the namespace (kept current by
  // set_size on every write).
  auto attr = mds_.namespace_store().stat(*path);
  if (!attr) co_return Errc::kStale;
  if (offset >= attr->size) co_return Buffer{};
  const std::uint64_t n = std::min(len, attr->size - offset);

  const auto key = cache_key(*path);
  if (!cache_disabled_ && pages_.covered(key, offset, n)) {
    // Warm read: local memory. Zero network; peek the coherent bytes.
    ++cache_hits_;
    co_await rpc_.fabric().node(self_).cpu().use(
        kClientOpCpu + transfer_time(n, 4 * kGiB));
    (void)pages_.access(key, offset, n);  // refresh LRU
  } else {
    ++cache_misses_;
    // Fetch every stripe piece from its DS, concurrently.
    const auto pieces = stripes_.map(offset, n);
    std::vector<sim::Task<void>> fetches;
    for (const auto& p : pieces) {
      fetches.push_back([](LustreClient& c, StripePiece piece,
                           std::string obj) -> sim::Task<void> {
        co_await c.rpc_.fabric().transfer(c.self_, c.ds_[piece.server]->node(),
                                          kRpcRequestBytes);
        (void)co_await c.ds_[piece.server]->read(obj, piece.local_offset,
                                                 piece.length);
        co_await c.rpc_.fabric().transfer(c.ds_[piece.server]->node(), c.self_,
                                          piece.length);
      }(*this, p, *path));
    }
    co_await sim::when_all(rpc_.fabric().loop(), std::move(fetches));
    if (!cache_disabled_) pages_.populate(key, offset, n);
  }

  // Assemble the actual bytes from the DS objects (ground truth) by
  // splicing each stripe piece's segment into one buffer.
  Buffer out;
  for (const auto& p : stripes_.map(offset, n)) {
    auto piece = ds_[p.server]->objects().read(*path, p.local_offset, p.length);
    if (!piece) co_return piece.error();
    if (piece->size() < p.length) {
      // Sparse stripes read back as zeros.
      piece->append(Buffer::zeros(p.length - piece->size()));
    }
    out.append(std::move(*piece));
  }
  co_return out;
}

sim::Task<Expected<std::uint64_t>> LustreClient::write(fsapi::OpenFile file,
                                                       std::uint64_t offset,
                                                       Buffer data) {
  auto path = path_of(file);
  if (!path) co_return path.error();
  if (auto l = co_await ensure_lock(*path, LockMode::kWrite); !l) {
    co_return l.error();
  }

  // Write-through to every stripe's DS, concurrently. Each stripe piece is
  // a zero-copy view of the caller's buffer.
  const auto pieces = stripes_.map(offset, data.size());
  std::vector<sim::Task<void>> stores;
  for (const auto& p : pieces) {
    Buffer slice = data.slice(p.global_offset - offset, p.length);
    stores.push_back([](LustreClient& c, StripePiece piece, std::string obj,
                        Buffer bytes) -> sim::Task<void> {
      co_await c.rpc_.fabric().transfer(c.self_, c.ds_[piece.server]->node(),
                                        bytes.size() + kRpcRequestBytes);
      (void)co_await c.ds_[piece.server]->write(obj, piece.local_offset,
                                                std::move(bytes));
      co_await c.rpc_.fabric().transfer(c.ds_[piece.server]->node(), c.self_,
                                        kRpcReplyBytes);
      // NOLINTNEXTLINE(imca-coro-this): when_all joins every child below.
    }(*this, p, *path, std::move(slice)));
  }
  co_await sim::when_all(rpc_.fabric().loop(), std::move(stores));
  pages_.populate(cache_key(*path), offset, data.size());

  // Report the (possibly) new size to the MDS.
  co_await charge_rpc(mds_.node(), kRpcRequestBytes, kRpcReplyBytes);
  (void)co_await mds_.set_size(*path, offset + data.size());
  co_return data.size();
}

sim::Task<Expected<void>> LustreClient::unlink(std::string path) {
  co_await charge_rpc(mds_.node(), kRpcRequestBytes, kRpcReplyBytes);
  auto r = co_await mds_.unlink(path);
  if (!r) co_return r;
  for (auto* ds : ds_) {
    (void)co_await ds->remove(path);
  }
  pages_.invalidate(cache_key(path));
  lock_cache_.erase(path);
  co_return Expected<void>{};
}

sim::Task<Expected<void>> LustreClient::truncate(std::string path,
                                                 std::uint64_t size) {
  if (auto l = co_await ensure_lock(path, LockMode::kWrite); !l) {
    co_return l.error();
  }
  // Truncate each data server's local object to its share of `size`.
  const std::uint64_t ss = stripes_.stripe_size();
  for (std::size_t k = 0; k < ds_.size(); ++k) {
    std::uint64_t local = 0;
    for (std::uint64_t j = k; j * ss < size; j += ds_.size()) {
      local += std::min(size - j * ss, ss);
    }
    co_await rpc_.fabric().transfer(self_, ds_[k]->node(), kRpcRequestBytes);
    (void)co_await ds_[k]->truncate_object(path, local);
    co_await rpc_.fabric().transfer(ds_[k]->node(), self_, kRpcReplyBytes);
  }
  pages_.invalidate(cache_key(path));
  co_await charge_rpc(mds_.node(), kRpcRequestBytes, kRpcReplyBytes);
  co_return co_await mds_.truncate(path, size);
}

sim::Task<Expected<void>> LustreClient::rename(std::string from,
                                               std::string to) {
  if (auto l = co_await ensure_lock(from, LockMode::kWrite); !l) {
    co_return l.error();
  }
  co_await charge_rpc(mds_.node(), kRpcRequestBytes + from.size() + to.size(),
                      kRpcReplyBytes);
  auto r = co_await mds_.rename(from, to);
  if (!r) co_return r;
  for (auto* ds : ds_) {
    co_await rpc_.fabric().transfer(self_, ds->node(), kRpcRequestBytes);
    (void)co_await ds->rename_object(from, to);
    co_await rpc_.fabric().transfer(ds->node(), self_, kRpcReplyBytes);
  }
  pages_.invalidate(cache_key(from));
  pages_.invalidate(cache_key(to));
  if (auto it = lock_cache_.find(from); it != lock_cache_.end()) {
    lock_cache_[to] = it->second;
    lock_cache_.erase(it);
  }
  for (auto& [fd, p] : fd_table_) {
    if (p == from) p = to;
  }
  co_return Expected<void>{};
}

void LustreClient::cold() {
  pages_.clear();
  lock_cache_.clear();
  mds_.drop_client_locks(self_);
  cache_disabled_ = true;
}

}  // namespace imca::lustre
