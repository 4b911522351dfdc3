#include "lustre/data_server.h"

namespace imca::lustre {
namespace {

// Kernel service path (no FUSE).
constexpr SimDuration kDsOpCpu = 8 * kMicro;
constexpr std::uint64_t kDsCopyBps = 2 * kGiB;

}  // namespace

DataServer::DataServer(net::RpcSystem& rpc, net::NodeId node, DsParams params)
    : rpc_(rpc),
      node_(node),
      dev_(rpc.fabric().loop(), params.raid_members, params.page_cache_bytes,
           "ost" + std::to_string(node)) {}

sim::Task<Expected<Buffer>> DataServer::read(std::string object,
                                             std::uint64_t offset,
                                             std::uint64_t len) {
  co_await rpc_.fabric().node(node_).cpu().use(
      kDsOpCpu + transfer_time(len, kDsCopyBps));
  auto attr = objects_.stat(object);
  if (!attr) co_return Buffer{};  // sparse object: zero bytes
  co_await dev_.read(attr->inode, offset, len);
  auto data = objects_.read(object, offset, len);
  if (!data) co_return data.error();
  co_return std::move(*data);
}

sim::Task<Expected<std::uint64_t>> DataServer::write(
    std::string object, std::uint64_t offset, Buffer data) {
  co_await rpc_.fabric().node(node_).cpu().use(
      kDsOpCpu + transfer_time(data.size(), kDsCopyBps));
  if (!objects_.exists(object)) {
    (void)objects_.create(object, rpc_.fabric().loop().now());
  }
  auto size = objects_.write(object, offset, data,
                             rpc_.fabric().loop().now());
  if (!size) co_return size.error();
  const auto attr = objects_.stat(object);
  co_await dev_.write(attr->inode, offset, data.size());
  co_return data.size();
}

sim::Task<Expected<void>> DataServer::remove(std::string object) {
  co_await rpc_.fabric().node(node_).cpu().use(kDsOpCpu);
  if (objects_.exists(object)) {
    const auto attr = objects_.stat(object);
    dev_.invalidate(attr->inode);
    (void)objects_.unlink(object);
  }
  co_return Expected<void>{};
}

sim::Task<Expected<void>> DataServer::truncate_object(
    std::string object, std::uint64_t local_size) {
  co_await rpc_.fabric().node(node_).cpu().use(kDsOpCpu);
  if (!objects_.exists(object)) co_return Expected<void>{};  // sparse
  const auto attr = objects_.stat(object);
  if (local_size < attr->size) dev_.invalidate(attr->inode);
  co_return objects_.truncate(object, local_size,
                              rpc_.fabric().loop().now());
}

sim::Task<Expected<void>> DataServer::rename_object(std::string from,
                                                    std::string to) {
  co_await rpc_.fabric().node(node_).cpu().use(kDsOpCpu);
  if (!objects_.exists(from)) {
    // This DS held no stripes of the file; make sure no stale target stays.
    (void)objects_.unlink(to);
    co_return Expected<void>{};
  }
  co_return objects_.rename(from, to, rpc_.fabric().loop().now());
}

}  // namespace imca::lustre
