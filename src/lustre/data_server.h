// Lustre-like data server (OST/DS): stores stripe objects and serves
// read/write extents.
//
// Each DS owns its local object store (the stripes mapped to it), a page
// cache and a RAID-backed disk. The paper runs Lustre with 1 or 4 DSs
// ("1DS"/"4DS"); aggregate bandwidth scales with DS count exactly because
// each brings its own NIC and spindles.
#pragma once

#include <cstdint>
#include <string>

#include "net/rpc.h"
#include "store/block_device.h"
#include "store/object_store.h"

namespace imca::lustre {

struct DsParams {
  std::size_t raid_members = 8;  // comparable storage to the GlusterFS brick
  std::uint64_t page_cache_bytes = 6 * kGiB;
};

class DataServer {
 public:
  DataServer(net::RpcSystem& rpc, net::NodeId node, DsParams params = {});

  net::NodeId node() const noexcept { return node_; }
  store::ObjectStore& objects() noexcept { return objects_; }
  store::BlockDevice& device() noexcept { return dev_; }

  // Serve a read/write of a local extent (object auto-created on first
  // write, like OST objects).
  sim::Task<Expected<Buffer>> read(std::string object,
                                   std::uint64_t offset, std::uint64_t len);
  sim::Task<Expected<std::uint64_t>> write(std::string object,
                                           std::uint64_t offset, Buffer data);
  sim::Task<Expected<void>> remove(std::string object);
  sim::Task<Expected<void>> truncate_object(std::string object,
                                            std::uint64_t local_size);
  sim::Task<Expected<void>> rename_object(std::string from,
                                          std::string to);

 private:
  net::RpcSystem& rpc_;
  net::NodeId node_;
  store::ObjectStore objects_;
  store::BlockDevice dev_;
};

}  // namespace imca::lustre
