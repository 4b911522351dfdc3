// storage/posix: the terminal server translator that talks to the local
// file system.
//
// Real bytes go to the shared ObjectStore; time goes to the node's CPU
// (VFS/syscall path) and to the BlockDevice (page cache + RAID array). The
// cost constants model a 2008 Linux server: a syscall plus dentry/inode work
// per op, a memcpy rate for data movement, and media time only on page-cache
// misses.
#pragma once

#include <cstdint>

#include "gluster/xlator.h"
#include "net/node.h"
#include "store/block_device.h"
#include "store/object_store.h"

namespace imca::gluster {

// create/stat/unlink dentry+inode.
inline constexpr SimDuration kPosixMetaOpCpu = 120 * kMicro;
// read/write fixed path cost.
inline constexpr SimDuration kPosixDataOpCpu = 6 * kMicro;
// user<->page-cache memcpy rate.
inline constexpr std::uint64_t kPosixCopyBps = 2 * kGiB;

class PosixXlator final : public Xlator {
 public:
  PosixXlator(sim::EventLoop& loop, net::Node& node, store::ObjectStore& os,
              store::BlockDevice& dev)
      : loop_(loop), node_(node), os_(os), dev_(dev) {}

  sim::Task<Expected<store::Attr>> create(std::string path,
                                          std::uint32_t mode) override;
  sim::Task<Expected<store::Attr>> open(std::string path) override;
  sim::Task<Expected<void>> close(std::string path) override;
  sim::Task<Expected<store::Attr>> stat(std::string path) override;
  sim::Task<Expected<Buffer>> read(std::string path,
                                   std::uint64_t offset,
                                   std::uint64_t len) override;
  sim::Task<Expected<std::uint64_t>> write(std::string path,
                                           std::uint64_t offset,
                                           Buffer data) override;
  sim::Task<Expected<void>> unlink(std::string path) override;
  sim::Task<Expected<void>> truncate(std::string path,
                                     std::uint64_t size) override;
  sim::Task<Expected<void>> rename(std::string from,
                                   std::string to) override;
  sim::Task<Expected<void>> fsync(std::string path) override;

  std::string_view name() const override { return "posix"; }

 private:
  sim::EventLoop& loop_;
  net::Node& node_;
  store::ObjectStore& os_;
  store::BlockDevice& dev_;
};

}  // namespace imca::gluster
