// In-memory backing store holding the *real bytes* of every file.
//
// This is the ground truth the whole reproduction is checked against: data
// written through any path (GlusterFS, IMCa, Lustre, NFS) lands here, data
// read through any path is sliced out of here, and the integrity tests
// compare end-to-end reads against direct ObjectStore contents. Time is
// never charged here — the disk/page-cache models own all timing.
//
// A file is an extent map from offset to the BufViews its writers handed
// in (GlusterFS iobufs pinned by the brick, not bytes copied to a platter).
// Writing keeps the caller's segments by reference; reading returns slices
// of them, with holes served from a per-store zero segment. No payload byte
// is copied, zero-filled or reallocated here, and since segments are
// immutable an overwrite replaces extents instead of mutating bytes — a
// Buffer returned by an earlier read stays a snapshot of the file as it was.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"
#include "common/bytebuf.h"
#include "common/errc.h"
#include "common/expected.h"
#include "common/units.h"

namespace imca::store {

// POSIX-stat-like attribute block. This struct is what SMCache serialises
// into memcached under "<path>:stat" (paper §4.2), so it has a stable wire
// encoding.
struct Attr {
  std::uint64_t inode = 0;
  std::uint64_t size = 0;
  std::uint32_t mode = 0644;
  std::uint32_t nlink = 1;
  SimTime atime = 0;
  SimTime mtime = 0;
  SimTime ctime = 0;

  void encode(ByteBuf& out) const;
  static Expected<Attr> decode(ByteBuf& in);
  // Size of the wire encoding in bytes (what a cached stat item costs):
  // inode + size (u64), mode + nlink (u32), three u64 timestamps.
  static constexpr std::uint64_t kWireSize = 8 * 2 + 4 * 2 + 8 * 3;

  bool operator==(const Attr&) const = default;
};

class ObjectStore {
 public:
  ObjectStore() = default;
  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  // Create an empty file. Fails with kExist if the path is taken.
  Expected<Attr> create(std::string_view path, SimTime now,
                        std::uint32_t mode = 0644);

  // Remove a file. Fails with kNoEnt.
  Expected<void> unlink(std::string_view path);

  bool exists(std::string_view path) const;

  Expected<Attr> stat(std::string_view path) const;

  // Write bytes at `offset`, extending the file (holes read as zeros).
  // Returns the file's new size. Updates mtime/ctime. Keeps `data`'s views
  // by reference — no copy. Fails with kInval if offset + size overflows.
  Expected<std::uint64_t> write(std::string_view path, std::uint64_t offset,
                                const Buffer& data, SimTime now);

  // Read up to `len` bytes from `offset`; short reads at EOF like POSIX.
  // Returns slices of the written segments (no copy); holes are views of
  // this store's zero segment.
  Expected<Buffer> read(std::string_view path, std::uint64_t offset,
                        std::uint64_t len) const;

  Expected<void> truncate(std::string_view path, std::uint64_t size,
                          SimTime now);

  // POSIX rename: atomically moves `from` to `to`, replacing any existing
  // `to`. The inode is preserved.
  Expected<void> rename(std::string_view from, std::string_view to,
                        SimTime now);

  std::size_t file_count() const noexcept { return files_.size(); }
  std::uint64_t total_bytes() const noexcept { return total_bytes_; }

  // Paths in lexicographic order (deterministic iteration for tests).
  std::vector<std::string> list() const;

 private:
  struct File {
    Attr attr;
    // Non-overlapping views keyed by file offset, all below attr.size; the
    // gaps between them are holes.
    std::map<std::uint64_t, BufView> extents;
  };

  struct PathHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  // `n` zero bytes as a view of zeros_, regrown when a hole outsizes it.
  BufView zeros(std::size_t n) const;

  std::unordered_map<std::string, File, PathHash, std::equal_to<>> files_;
  // Per store, not process-wide: the buffer ledger is process-wide, and a
  // shared static segment would be counted by the first store only.
  mutable Segment zeros_;
  std::uint64_t next_inode_ = 1;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace imca::store
