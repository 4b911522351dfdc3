// Refcounted scatter-gather buffers — the one payload type on the data path.
//
// GlusterFS moves payloads as iobuf/iobref chains: a read's bytes are
// allocated once (at the disk or the wire) and every layer above passes
// *views* of those refcounted segments, concatenating and slicing in O(1)
// instead of memcpy'ing at each hop. This header is our rendering:
//
//   Segment  — refcounted, immutable byte storage (an iobuf arena chunk);
//   BufView  — a [offset, offset+len) window into one Segment (an iobuf);
//   Buffer   — an ordered list of views (an iobref): the payload type every
//              fop, protocol and cache signature traffics in.
//
// Copies only happen at true materialization points — gather() into a
// caller's contiguous buffer, Segment::copy_of at a byte source (disk read,
// wire receive) — and every one is recorded in the process-wide BufferStats
// ledger, so "how many times was this byte moved" is a measured quantity
// (`bytes_copied_per_byte_read` in the bench JSON), not a belief.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace imca {

// Process-wide copy ledger. The simulation is single-threaded per process,
// so plain counters suffice.
struct BufferStats {
  std::uint64_t segments_allocated = 0;  // Segments brought into existence
  std::uint64_t segment_bytes = 0;       // bytes those segments hold
  std::uint64_t bytes_copied = 0;        // bytes memcpy'd by the buffer layer
  std::uint64_t gather_calls = 0;        // full materializations
  std::uint64_t view_slices = 0;         // zero-copy slices handed out
};

BufferStats& buffer_stats() noexcept;

// Refcounted immutable byte storage. Copying a Segment copies a pointer.
class Segment {
 public:
  Segment() = default;

  // Adopt `data` without copying (the vector is moved into shared storage).
  static Segment take(std::vector<std::byte>&& data);
  // Allocate new storage holding a copy of `src` (counted in the ledger) —
  // the one legal way bytes enter the buffer layer from mutable memory.
  static Segment copy_of(std::span<const std::byte> src);
  // Allocate `n` zero bytes (hole fill; an allocation, not a copy).
  static Segment zeros(std::size_t n);

  std::span<const std::byte> bytes() const noexcept {
    return data_ ? std::span<const std::byte>(*data_)
                 : std::span<const std::byte>{};
  }
  std::size_t size() const noexcept { return data_ ? data_->size() : 0; }
  bool valid() const noexcept { return data_ != nullptr; }
  long use_count() const noexcept { return data_.use_count(); }

 private:
  explicit Segment(std::shared_ptr<const std::vector<std::byte>> data)
      : data_(std::move(data)) {}
  friend class ByteBuf;  // seals its append tail into a Segment, no copy

  std::shared_ptr<const std::vector<std::byte>> data_;
};

// A window into one Segment. Value type; keeps its segment alive.
class BufView {
 public:
  BufView() = default;
  BufView(Segment seg, std::size_t offset, std::size_t length);
  // Whole-segment view.
  explicit BufView(Segment seg) : BufView(seg, 0, seg.size()) {}

  std::span<const std::byte> bytes() const noexcept {
    return seg_.bytes().subspan(off_, len_);
  }
  std::size_t size() const noexcept { return len_; }
  bool empty() const noexcept { return len_ == 0; }
  const Segment& segment() const noexcept { return seg_; }

  // Sub-window relative to this view; clamped to its extent.
  BufView sub(std::size_t offset, std::size_t length) const;

 private:
  Segment seg_;
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

// Ordered list of segment views. Slice/concat are O(#views) pointer work;
// bytes are shared, never moved, until a materialization point.
class Buffer {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  Buffer() = default;
  Buffer(const Buffer&) = default;
  Buffer& operator=(const Buffer&) = default;
  // Moves must leave the source genuinely empty: a defaulted move would
  // copy size_, and a moved-from buffer reporting a stale nonzero size is
  // how absorb-into-moved-from corruption starts (write_behind flushes).
  Buffer(Buffer&& other) noexcept
      : views_(std::move(other.views_)), size_(other.size_) {
    other.views_.clear();
    other.size_ = 0;
  }
  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      views_ = std::move(other.views_);
      size_ = other.size_;
      other.views_.clear();
      other.size_ = 0;
    }
    return *this;
  }

  // Adopt a vector as one segment (no copy).
  static Buffer take(std::vector<std::byte>&& data);
  // New storage holding a copy of `src` (counted).
  static Buffer copy_of(std::span<const std::byte> src);
  // New storage holding a copy of `s` (counted) — the workload edge's
  // explicit string -> payload conversion.
  static Buffer of_string(std::string_view s);
  // `n` zero bytes (allocation, not a copy).
  static Buffer zeros(std::size_t n);

  void append(BufView v);
  void append(const Buffer& other);
  void append(Buffer&& other);

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const std::vector<BufView>& views() const noexcept { return views_; }
  std::size_t segment_count() const noexcept { return views_.size(); }

  // Zero-copy sub-range. Clamped to the buffer's extent: slice(off, npos)
  // is "everything from off".
  Buffer slice(std::size_t offset, std::size_t length = npos) const;

  // Copy up to out.size() bytes starting at `offset` into `out`; returns the
  // number copied. A materialization point (counted).
  std::size_t copy_to(std::size_t offset, std::span<std::byte> out) const;

  // Materialize the whole buffer contiguously. The canonical (and ideally
  // only) full-payload copy of a read. Counted as one gather.
  std::vector<std::byte> gather() const;
  std::string gather_string() const;

  // The bytes of [offset, offset+length) if they lie within one segment;
  // empty span otherwise. Lets parsers borrow text without copying.
  std::span<const std::byte> contiguous(std::size_t offset,
                                        std::size_t length) const noexcept;

  std::byte at(std::size_t i) const;

  // First occurrence of `needle` at or after `from`; npos if absent.
  // Matches across segment boundaries.
  std::size_t find(std::string_view needle, std::size_t from = 0) const;
  bool ends_with(std::string_view tail) const;

  bool content_equals(std::span<const std::byte> bytes) const;
  bool content_equals(const Buffer& other) const;
  friend bool operator==(const Buffer& a, const Buffer& b) {
    return a.content_equals(b);
  }

  // Forward iterator over the logical byte sequence. Iterators are
  // invalidated by append() on the buffer they came from, but remain valid
  // when *other* handles to the same segments go away (refcounts hold the
  // storage).
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::byte;
    using difference_type = std::ptrdiff_t;
    using pointer = const std::byte*;
    using reference = const std::byte&;

    const_iterator() = default;
    reference operator*() const { return buf_->views()[view_].bytes()[pos_]; }
    const_iterator& operator++();
    const_iterator operator++(int) {
      const_iterator t = *this;
      ++*this;
      return t;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.buf_ == b.buf_ && a.view_ == b.view_ && a.pos_ == b.pos_;
    }

   private:
    friend class Buffer;
    const_iterator(const Buffer* buf, std::size_t view, std::size_t pos)
        : buf_(buf), view_(view), pos_(pos) {}
    void skip_empty();

    const Buffer* buf_ = nullptr;
    std::size_t view_ = 0;
    std::size_t pos_ = 0;
  };

  const_iterator begin() const;
  const_iterator end() const;

 private:
  // (view index, offset within that view) for a logical offset.
  std::pair<std::size_t, std::size_t> locate(std::size_t offset) const;

  std::vector<BufView> views_;
  std::size_t size_ = 0;
};

}  // namespace imca
