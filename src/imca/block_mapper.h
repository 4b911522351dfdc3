// Fixed-block geometry for the cache tier (paper §4.3.1).
//
// IMCa stores file data in fixed-size blocks: a read of (offset, len) maps
// to the aligned run of blocks covering it, which may be larger than the
// request on both ends (Fig 3 — the "additional data transfers" trade-off).
// Block size must stay below memcached's 1 MB item ceiling.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/buffer.h"
#include "common/units.h"
#include "memcache/cache.h"
#include "memcache/slab.h"

namespace imca::core {

class BlockMapper {
 public:
  // Largest block whose item still fits memcached's ceiling: the payload
  // plus the item header plus up to 300 B of key.
  static constexpr std::uint64_t kMaxBlockSize =
      memcache::kMaxItemTotal - memcache::kItemOverhead - 300;

  explicit BlockMapper(std::uint64_t block_size) : block_size_(block_size) {
    assert(block_size > 0);
    assert(block_size <= kMaxBlockSize &&
           "block + key + overhead must fit a memcached item");
  }

  std::uint64_t block_size() const noexcept { return block_size_; }

  std::uint64_t index_of(std::uint64_t offset) const noexcept {
    return offset / block_size_;
  }
  std::uint64_t start_of(std::uint64_t index) const noexcept {
    return index * block_size_;
  }
  std::uint64_t align_down(std::uint64_t offset) const noexcept {
    return offset - offset % block_size_;
  }
  std::uint64_t align_up(std::uint64_t offset) const noexcept {
    const std::uint64_t rem = offset % block_size_;
    return rem == 0 ? offset : offset + block_size_ - rem;
  }

  // Indices of the blocks covering [offset, offset+len). Empty for len==0.
  std::vector<std::uint64_t> covering(std::uint64_t offset,
                                      std::uint64_t len) const {
    std::vector<std::uint64_t> out;
    if (len == 0) return out;
    const std::uint64_t first = index_of(offset);
    const std::uint64_t last = index_of(offset + len - 1);
    out.reserve(last - first + 1);
    for (std::uint64_t i = first; i <= last; ++i) out.push_back(i);
    return out;
  }

  // Size of the aligned region covering [offset, offset+len).
  std::uint64_t aligned_length(std::uint64_t offset,
                               std::uint64_t len) const noexcept {
    if (len == 0) return 0;
    return align_up(offset + len) - align_down(offset);
  }

  bool operator==(const BlockMapper&) const = default;

 private:
  std::uint64_t block_size_;
};

// The paper's all-or-nothing read (§4.3.1) over a multi-get of the blocks
// covering [offset, offset+len): slot i holds block i or nullopt. Blocks
// are taken in order and a short block ends the file, so absent blocks
// after it are EOF; an absent block before that (after a full one) is a
// miss. Returns the requested bytes as views of the cached segments, or
// nullopt on a miss. Moves the values out of `blocks`.
inline std::optional<Buffer> assemble_cached(
    const BlockMapper& mapper, std::uint64_t offset, std::uint64_t len,
    std::span<std::optional<memcache::Value>> blocks) {
  Buffer assembled;
  for (auto& block : blocks) {
    if (!block) return std::nullopt;
    const std::size_t block_len = block->data.size();
    assembled.append(std::move(block->data));  // splice, no copy
    if (block_len < mapper.block_size()) break;  // short block = EOF
  }
  const std::uint64_t skip = offset - mapper.align_down(offset);
  if (assembled.size() <= skip) return Buffer{};  // EOF
  return assembled.slice(skip, len);
}

}  // namespace imca::core
