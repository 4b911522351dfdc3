#include "nfs/nfs.h"

#include <algorithm>

namespace imca::nfs {
namespace {

// nfsd service path.
constexpr SimDuration kServerOpCpu = 10 * kMicro;
constexpr std::uint64_t kServerCopyBps = 2 * kGiB;
constexpr std::size_t kServerRaidMembers = 8;

// Kernel NFS client path.
constexpr SimDuration kClientOpCpu = 5 * kMicro;
// Wire chunking.
constexpr std::uint64_t kRsize = 64 * kKiB;
constexpr std::uint64_t kWsize = 64 * kKiB;
constexpr std::uint64_t kRpcHeaderBytes = 128;

}  // namespace

NfsServer::NfsServer(net::RpcSystem& rpc, net::NodeId node,
                     NfsServerParams params)
    : rpc_(rpc),
      node_(node),
      dev_(rpc.fabric().loop(), kServerRaidMembers, params.page_cache_bytes,
           "nfsd" + std::to_string(node)) {}

sim::Task<Expected<store::Attr>> NfsServer::create(std::string path) {
  co_await rpc_.fabric().node(node_).cpu().use(kServerOpCpu);
  auto attr = files_.create(path, rpc_.fabric().loop().now());
  if (!attr) co_return attr.error();
  co_await dev_.meta(attr->inode);
  co_return *attr;
}

sim::Task<Expected<store::Attr>> NfsServer::getattr(std::string path) {
  co_await rpc_.fabric().node(node_).cpu().use(kServerOpCpu);
  auto attr = files_.stat(path);
  if (!attr) co_return attr.error();
  co_await dev_.meta(attr->inode);
  co_return *attr;
}

sim::Task<Expected<Buffer>> NfsServer::read(std::string path,
                                            std::uint64_t offset,
                                            std::uint64_t len) {
  auto attr = files_.stat(path);
  if (!attr) co_return attr.error();
  co_await rpc_.fabric().node(node_).cpu().use(
      kServerOpCpu + transfer_time(len, kServerCopyBps));
  co_await dev_.read(attr->inode, offset, len);
  auto data = files_.read(path, offset, len);
  if (!data) co_return data.error();
  co_return std::move(*data);
}

sim::Task<Expected<std::uint64_t>> NfsServer::write(std::string path,
                                                    std::uint64_t offset,
                                                    Buffer data) {
  auto attr = files_.stat(path);
  if (!attr) co_return attr.error();
  const std::uint64_t n = data.size();
  co_await rpc_.fabric().node(node_).cpu().use(
      kServerOpCpu + transfer_time(n, kServerCopyBps));
  auto size = files_.write(path, offset, data, rpc_.fabric().loop().now());
  if (!size) co_return size.error();
  co_await dev_.write(attr->inode, offset, n);
  co_return n;
}

sim::Task<Expected<void>> NfsServer::remove(std::string path) {
  co_await rpc_.fabric().node(node_).cpu().use(kServerOpCpu);
  auto attr = files_.stat(path);
  if (!attr) co_return attr.error();
  dev_.invalidate(attr->inode);
  co_return files_.unlink(path);
}

sim::Task<Expected<void>> NfsServer::setattr_size(std::string path,
                                                  std::uint64_t size) {
  co_await rpc_.fabric().node(node_).cpu().use(kServerOpCpu);
  auto attr = files_.stat(path);
  if (!attr) co_return attr.error();
  if (size < attr->size) dev_.invalidate(attr->inode);
  co_return files_.truncate(path, size, rpc_.fabric().loop().now());
}

sim::Task<Expected<void>> NfsServer::rename_file(std::string from,
                                                 std::string to) {
  co_await rpc_.fabric().node(node_).cpu().use(kServerOpCpu);
  co_return files_.rename(from, to, rpc_.fabric().loop().now());
}

// --- client ---

NfsClient::NfsClient(net::RpcSystem& rpc, net::NodeId self, NfsServer& server)
    : rpc_(rpc), self_(self), server_(server) {}

Expected<std::string> NfsClient::path_of(fsapi::OpenFile file) const {
  auto it = fd_table_.find(file.fd);
  if (it == fd_table_.end()) return Errc::kBadF;
  return it->second;
}

sim::Task<Expected<fsapi::OpenFile>> NfsClient::create(std::string path) {
  co_await rpc_.fabric().node(self_).cpu().use(kClientOpCpu);
  co_await rpc_.fabric().transfer(self_, server_.node(),
                                  kRpcHeaderBytes + path.size());
  auto attr = co_await server_.create(path);
  co_await rpc_.fabric().transfer(server_.node(), self_, kRpcHeaderBytes);
  if (!attr) co_return attr.error();
  const std::uint64_t fd = next_fd_++;
  fd_table_.emplace(fd, std::move(path));
  co_return fsapi::OpenFile{fd};
}

sim::Task<Expected<fsapi::OpenFile>> NfsClient::open(std::string path) {
  co_await rpc_.fabric().node(self_).cpu().use(kClientOpCpu);
  co_await rpc_.fabric().transfer(self_, server_.node(),
                                  kRpcHeaderBytes + path.size());
  auto attr = co_await server_.getattr(path);
  co_await rpc_.fabric().transfer(server_.node(), self_, kRpcHeaderBytes);
  if (!attr) co_return attr.error();
  const std::uint64_t fd = next_fd_++;
  fd_table_.emplace(fd, std::move(path));
  co_return fsapi::OpenFile{fd};
}

sim::Task<Expected<void>> NfsClient::close(fsapi::OpenFile file) {
  auto path = path_of(file);
  if (!path) co_return path.error();
  co_await rpc_.fabric().node(self_).cpu().use(kClientOpCpu);
  fd_table_.erase(file.fd);
  co_return Expected<void>{};  // NFS close is local
}

sim::Task<Expected<store::Attr>> NfsClient::stat(std::string path) {
  co_await rpc_.fabric().node(self_).cpu().use(kClientOpCpu);
  co_await rpc_.fabric().transfer(self_, server_.node(),
                                  kRpcHeaderBytes + path.size());
  auto attr = co_await server_.getattr(path);
  co_await rpc_.fabric().transfer(server_.node(), self_, kRpcHeaderBytes);
  co_return attr;
}

sim::Task<Expected<Buffer>> NfsClient::read(fsapi::OpenFile file,
                                            std::uint64_t offset,
                                            std::uint64_t len) {
  auto path = path_of(file);
  if (!path) co_return path.error();
  Buffer out;
  std::uint64_t pos = offset;
  std::uint64_t left = len;
  while (left > 0) {
    const std::uint64_t chunk = std::min(left, kRsize);
    co_await rpc_.fabric().node(self_).cpu().use(kClientOpCpu);
    co_await rpc_.fabric().transfer(self_, server_.node(), kRpcHeaderBytes);
    auto data = co_await server_.read(*path, pos, chunk);
    if (!data) co_return data.error();
    co_await rpc_.fabric().transfer(server_.node(), self_,
                                    kRpcHeaderBytes + data->size());
    const std::uint64_t got = data->size();
    out.append(std::move(*data));  // splice the chunk's segments
    if (got < chunk) break;  // EOF
    pos += chunk;
    left -= chunk;
  }
  co_return out;
}

sim::Task<Expected<std::uint64_t>> NfsClient::write(fsapi::OpenFile file,
                                                    std::uint64_t offset,
                                                    Buffer data) {
  auto path = path_of(file);
  if (!path) co_return path.error();
  std::uint64_t pos = 0;
  while (pos < data.size()) {
    const std::uint64_t chunk =
        std::min<std::uint64_t>(data.size() - pos, kWsize);
    co_await rpc_.fabric().node(self_).cpu().use(kClientOpCpu);
    co_await rpc_.fabric().transfer(self_, server_.node(),
                                    kRpcHeaderBytes + chunk);
    auto w = co_await server_.write(*path, offset + pos,
                                    data.slice(pos, chunk));
    if (!w) co_return w.error();
    co_await rpc_.fabric().transfer(server_.node(), self_, kRpcHeaderBytes);
    pos += chunk;
  }
  co_return data.size();
}

sim::Task<void> NfsClient::charge_small_op(std::uint64_t path_bytes) {
  co_await rpc_.fabric().node(self_).cpu().use(kClientOpCpu);
  co_await rpc_.fabric().transfer(self_, server_.node(),
                                  kRpcHeaderBytes + path_bytes);
}

sim::Task<Expected<void>> NfsClient::truncate(std::string path,
                                              std::uint64_t size) {
  co_await charge_small_op(path.size());
  auto r = co_await server_.setattr_size(path, size);
  co_await rpc_.fabric().transfer(server_.node(), self_, kRpcHeaderBytes);
  co_return r;
}

sim::Task<Expected<void>> NfsClient::rename(std::string from, std::string to) {
  co_await charge_small_op(from.size() + to.size());
  auto r = co_await server_.rename_file(from, to);
  co_await rpc_.fabric().transfer(server_.node(), self_, kRpcHeaderBytes);
  if (r) {
    for (auto& [fd, p] : fd_table_) {
      if (p == from) p = to;
    }
  }
  co_return r;
}

sim::Task<Expected<void>> NfsClient::unlink(std::string path) {
  co_await rpc_.fabric().node(self_).cpu().use(kClientOpCpu);
  co_await rpc_.fabric().transfer(self_, server_.node(),
                                  kRpcHeaderBytes + path.size());
  auto r = co_await server_.remove(path);
  co_await rpc_.fabric().transfer(server_.node(), self_, kRpcHeaderBytes);
  co_return r;
}

}  // namespace imca::nfs
