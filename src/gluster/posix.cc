#include "gluster/posix.h"

namespace imca::gluster {

sim::Task<Expected<store::Attr>> PosixXlator::create(std::string path,
                                                     std::uint32_t mode) {
  co_await node_.cpu().use(kPosixMetaOpCpu);
  auto attr = os_.create(path, loop_.now(), mode);
  if (!attr) co_return attr.error();
  // The new inode lands in the buffer cache; the media write is deferred.
  co_await dev_.meta(attr->inode);
  co_return *attr;
}

sim::Task<Expected<store::Attr>> PosixXlator::open(std::string path) {
  co_await node_.cpu().use(kPosixMetaOpCpu);
  auto attr = os_.stat(path);
  if (!attr) co_return attr.error();
  co_await dev_.meta(attr->inode);
  co_return *attr;
}

sim::Task<Expected<void>> PosixXlator::close(std::string) {
  co_await node_.cpu().use(kPosixMetaOpCpu / 2);
  co_return Expected<void>{};
}

sim::Task<Expected<store::Attr>> PosixXlator::stat(std::string path) {
  co_await node_.cpu().use(kPosixMetaOpCpu);
  auto attr = os_.stat(path);
  if (!attr) co_return attr.error();
  co_await dev_.meta(attr->inode);
  co_return *attr;
}

sim::Task<Expected<Buffer>> PosixXlator::read(std::string path,
                                              std::uint64_t offset,
                                              std::uint64_t len) {
  auto attr = os_.stat(path);
  if (!attr) co_return attr.error();
  co_await node_.cpu().use(kPosixDataOpCpu +
                           transfer_time(len, kPosixCopyBps));
  co_await dev_.read(attr->inode, offset, len);
  auto data = os_.read(path, offset, len);
  if (!data) co_return data.error();
  co_return std::move(*data);
}

sim::Task<Expected<std::uint64_t>> PosixXlator::write(
    std::string path, std::uint64_t offset, Buffer data) {
  auto attr = os_.stat(path);
  if (!attr) co_return attr.error();
  co_await node_.cpu().use(kPosixDataOpCpu +
                           transfer_time(data.size(), kPosixCopyBps));
  auto size = os_.write(path, offset, data, loop_.now());
  if (!size) co_return size.error();
  co_await dev_.write(attr->inode, offset, data.size());
  co_return data.size();
}

sim::Task<Expected<void>> PosixXlator::unlink(std::string path) {
  co_await node_.cpu().use(kPosixMetaOpCpu);
  auto attr = os_.stat(path);
  if (!attr) co_return attr.error();
  auto r = os_.unlink(path);
  if (!r) co_return r;
  dev_.invalidate(attr->inode);
  co_await dev_.meta(attr->inode);
  co_return Expected<void>{};
}

sim::Task<Expected<void>> PosixXlator::truncate(std::string path,
                                                std::uint64_t size) {
  co_await node_.cpu().use(kPosixMetaOpCpu);
  auto attr = os_.stat(path);
  auto r = os_.truncate(path, size, loop_.now());
  if (r && attr) {
    // Pages past the new EOF are gone from the buffer cache too.
    if (size < attr->size) dev_.invalidate(attr->inode);
    co_await dev_.meta(attr->inode);
  }
  co_return r;
}

sim::Task<Expected<void>> PosixXlator::fsync(std::string path) {
  // The ObjectStore is already the durable ground truth (posix writes are
  // synchronous in this model); fsync costs a syscall plus a barrier pass
  // over the inode's dirty pages.
  co_await node_.cpu().use(kPosixMetaOpCpu / 2);
  auto attr = os_.stat(path);
  if (!attr) co_return attr.error();
  co_await dev_.meta(attr->inode);
  co_return Expected<void>{};
}

sim::Task<Expected<void>> PosixXlator::rename(std::string from,
                                              std::string to) {
  co_await node_.cpu().use(kPosixMetaOpCpu);
  auto attr = os_.stat(from);
  auto r = os_.rename(from, to, loop_.now());
  if (r && attr) co_await dev_.meta(attr->inode);  // dirent updates
  co_return r;
}

}  // namespace imca::gluster
