// NFS-like single-server file service — the motivation experiment's subject
// (paper §3, Fig 1: NFS/RDMA vs NFS/TCP over IPoIB vs GigE).
//
// One server node holds all files behind a page cache and a RAID array; the
// transport is whatever the owning Fabric was built with, so the same code
// measured under net::ib_rdma(), net::ipoib_rc() and net::gige() yields the
// figure's three curves. The client chunks wire transfers at rsize/wsize
// (64 KB) like a tuned NFSv3 mount and keeps no client cache.
//
// The motivation effect: while every client's file set fits the server page
// cache, read bandwidth is transport-bound (RDMA > IPoIB > GigE); once the
// aggregate working set exceeds server memory, every transport collapses
// onto the disk's rate — "the server is constrained by the ability of the
// disk to match the bandwidth of the network".
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fsapi/filesystem.h"
#include "net/rpc.h"
#include "store/block_device.h"
#include "store/object_store.h"

namespace imca::nfs {

struct NfsServerParams {
  std::uint64_t page_cache_bytes = 4 * kGiB;  // Fig 1 varies 4 GB vs 8 GB
};

class NfsServer {
 public:
  NfsServer(net::RpcSystem& rpc, net::NodeId node, NfsServerParams params = {});

  net::NodeId node() const noexcept { return node_; }
  store::ObjectStore& files() noexcept { return files_; }
  store::BlockDevice& device() noexcept { return dev_; }

  sim::Task<Expected<store::Attr>> create(std::string path);
  sim::Task<Expected<store::Attr>> getattr(std::string path);
  sim::Task<Expected<Buffer>> read(std::string path,
                                   std::uint64_t offset, std::uint64_t len);
  sim::Task<Expected<std::uint64_t>> write(std::string path,
                                           std::uint64_t offset, Buffer data);
  sim::Task<Expected<void>> remove(std::string path);
  sim::Task<Expected<void>> setattr_size(std::string path,
                                         std::uint64_t size);
  sim::Task<Expected<void>> rename_file(std::string from,
                                        std::string to);

 private:
  net::RpcSystem& rpc_;
  net::NodeId node_;
  store::ObjectStore files_;
  store::BlockDevice dev_;
};

class NfsClient final : public fsapi::FileSystemClient {
 public:
  NfsClient(net::RpcSystem& rpc, net::NodeId self, NfsServer& server);

  sim::Task<Expected<fsapi::OpenFile>> create(std::string path) override;
  sim::Task<Expected<fsapi::OpenFile>> open(std::string path) override;
  sim::Task<Expected<void>> close(fsapi::OpenFile file) override;
  sim::Task<Expected<store::Attr>> stat(std::string path) override;
  sim::Task<Expected<Buffer>> read(fsapi::OpenFile file, std::uint64_t offset,
                                   std::uint64_t len) override;
  sim::Task<Expected<std::uint64_t>> write(fsapi::OpenFile file,
                                           std::uint64_t offset,
                                           Buffer data) override;
  sim::Task<Expected<void>> unlink(std::string path) override;
  sim::Task<Expected<void>> truncate(std::string path,
                                     std::uint64_t size) override;
  sim::Task<Expected<void>> rename(std::string from, std::string to) override;

 private:
  // One small-op round trip to the server charging both stacks.
  sim::Task<void> charge_small_op(std::uint64_t path_bytes);
  Expected<std::string> path_of(fsapi::OpenFile file) const;

  net::RpcSystem& rpc_;
  net::NodeId self_;
  NfsServer& server_;
  std::map<std::uint64_t, std::string> fd_table_;
  std::uint64_t next_fd_ = 3;
};

}  // namespace imca::nfs
