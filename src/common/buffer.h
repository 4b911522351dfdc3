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
// wire receive) — and every one is recorded in this thread's BufferStats
// ledger, so "how many times was this byte moved" is a measured quantity
// (`bytes_copied_per_byte_read` in the bench JSON), not a belief.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace imca {

// The copy ledger of the calling thread. A simulation runs on one thread, so
// plain counters suffice, and simulations on other threads keep their own.
struct BufferStats {
  std::uint64_t segments_allocated = 0;  // Segments brought into existence
  std::uint64_t segment_bytes = 0;       // bytes those segments hold
  std::uint64_t bytes_copied = 0;        // bytes memcpy'd by the buffer layer
  std::uint64_t gather_calls = 0;        // full materializations
  std::uint64_t view_slices = 0;         // zero-copy slices handed out
};

BufferStats& buffer_stats() noexcept;

// Refcounted immutable byte storage in one block: a header with a plain
// count, then the bytes. Copying a Segment copies a pointer. The count is
// not atomic, so a Segment, with every Buffer that holds it, belongs to one
// thread (DESIGN.md §5e).
class Segment {
 public:
  Segment() = default;
  Segment(const Segment& other) noexcept : block_(other.block_) {
    if (block_ != nullptr) ++block_->refs;
  }
  Segment(Segment&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  Segment& operator=(const Segment& other) noexcept {
    Segment(other).swap(*this);
    return *this;
  }
  Segment& operator=(Segment&& other) noexcept {
    Segment(std::move(other)).swap(*this);
    return *this;
  }
  ~Segment() {
    if (block_ != nullptr && --block_->refs == 0) destroy(block_);
  }

  // Adopt `data` without copying (the vector is moved into the block, in
  // place of the bytes).
  static Segment take(std::vector<std::byte>&& data);
  // Allocate new storage holding a copy of `src` (counted in the ledger) —
  // the one legal way bytes enter the buffer layer from mutable memory.
  static Segment copy_of(std::span<const std::byte> src);
  // Allocate `n` zero bytes (hole fill; an allocation, not a copy).
  static Segment zeros(std::size_t n);

  std::span<const std::byte> bytes() const noexcept {
    return block_ != nullptr
               ? std::span<const std::byte>(block_->data, block_->size)
               : std::span<const std::byte>{};
  }
  std::size_t size() const noexcept {
    return block_ != nullptr ? block_->size : 0;
  }
  bool valid() const noexcept { return block_ != nullptr; }
  long use_count() const noexcept {
    return block_ != nullptr ? static_cast<long>(block_->refs) : 0;
  }

 private:
  struct Block {
    std::size_t refs;
    std::size_t size;      // bytes in use
    std::size_t capacity;  // bytes after the header (0 once adopted)
    std::byte* data;       // just past the header, or the adopted vector's
  };
  friend class ByteBuf;  // writes its append tail in place, seals it as is

  // `capacity` writable bytes after the header, `size` of them in use.
  static Segment allocate(std::size_t capacity, std::size_t size);
  static void destroy(Block* b) noexcept;
  void swap(Segment& other) noexcept { std::swap(block_, other.block_); }

  // ByteBuf's tail: append in place. Pre: the caller is the one ByteBuf
  // writing this block, every view of it ends at or before size(), and
  // size() + n <= capacity(). Views keep their own extent, so bytes
  // written past size() never show through them.
  std::size_t capacity() const noexcept {
    return block_ != nullptr ? block_->capacity : 0;
  }
  void append_in_place(const std::byte* p, std::size_t n) noexcept;

  Block* block_ = nullptr;
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
  // how absorb-into-moved-from corruption starts.
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
  // Room for `views` views in total, so the appends that follow do not
  // regrow the view list (growth stays geometric).
  void reserve(std::size_t views);

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::span<const BufView> views() const noexcept { return views_; }
  std::size_t segment_count() const noexcept { return views_.size(); }

  // Where a logical offset lives: view index and offset within that view.
  // A sequential reader (the memcached text scanner) keeps one and moves it
  // forward, instead of re-walking the view list from the front per access.
  struct Position {
    std::size_t view = 0;
    std::size_t offset = 0;
  };

  // Zero-copy sub-range. Clamped to the buffer's extent: slice(off, npos)
  // is "everything from off".
  Buffer slice(std::size_t offset, std::size_t length = npos) const;
  // The same, starting at `from` (a position inside this buffer, or the
  // one-past-the-end {views().size(), 0}); clamped at the buffer's end.
  Buffer slice(Position from, std::size_t length) const;

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
  // Position of a logical offset; {views_.size(), 0} at or past the end.
  Position locate(std::size_t offset) const;

  std::vector<BufView> views_;
  std::size_t size_ = 0;
};

}  // namespace imca
