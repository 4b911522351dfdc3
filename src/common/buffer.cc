#include "common/buffer.h"

#include <algorithm>
#include <cstring>
#include <new>

namespace imca {

namespace {
// One ledger per thread, like the coroutine frame pool: two simulations on
// two threads never share it. Constant-initialized and trivially
// destructible, so every access is one thread-pointer-relative instruction.
thread_local constinit BufferStats t_stats{};
}  // namespace

BufferStats& buffer_stats() noexcept { return t_stats; }

// --- Segment ---

Segment Segment::allocate(std::size_t capacity, std::size_t size) {
  void* mem = ::operator new(sizeof(Block) + capacity);
  auto* b = ::new (mem) Block{1, size, capacity, nullptr};
  b->data = reinterpret_cast<std::byte*>(b + 1);
  Segment s;
  s.block_ = b;
  return s;
}

void Segment::destroy(Block* b) noexcept {
  if (b->data != reinterpret_cast<std::byte*>(b + 1)) {
    // An adopted vector sits where the bytes would be.
    using Vec = std::vector<std::byte>;
    std::launder(reinterpret_cast<Vec*>(b + 1))->~Vec();
  }
  ::operator delete(b);
}

void Segment::append_in_place(const std::byte* p, std::size_t n) noexcept {
  std::memcpy(block_->data + block_->size, p, n);
  block_->size += n;
}

Segment Segment::take(std::vector<std::byte>&& data) {
  ++t_stats.segments_allocated;
  t_stats.segment_bytes += data.size();
  using Vec = std::vector<std::byte>;
  static_assert(alignof(Vec) <= alignof(Block));
  Segment s = allocate(sizeof(Vec), data.size());
  auto* v = ::new (s.block_->data) Vec(std::move(data));
  s.block_->capacity = 0;
  s.block_->data = v->data();
  return s;
}

Segment Segment::copy_of(std::span<const std::byte> src) {
  ++t_stats.segments_allocated;
  t_stats.segment_bytes += src.size();
  t_stats.bytes_copied += src.size();
  Segment s = allocate(src.size(), src.size());
  if (!src.empty()) std::memcpy(s.block_->data, src.data(), src.size());
  return s;
}

Segment Segment::zeros(std::size_t n) {
  ++t_stats.segments_allocated;
  t_stats.segment_bytes += n;
  Segment s = allocate(n, n);
  if (n != 0) std::memset(s.block_->data, 0, n);
  return s;
}

// --- BufView ---

BufView::BufView(Segment seg, std::size_t offset, std::size_t length)
    : seg_(std::move(seg)) {
  const std::size_t n = seg_.size();
  off_ = std::min(offset, n);
  len_ = std::min(length, n - off_);
}

BufView BufView::sub(std::size_t offset, std::size_t length) const {
  const std::size_t off = std::min(offset, len_);
  const std::size_t len = std::min(length, len_ - off);
  return BufView(seg_, off_ + off, len);
}

// --- Buffer ---

Buffer Buffer::take(std::vector<std::byte>&& data) {
  Buffer b;
  b.append(BufView(Segment::take(std::move(data))));
  return b;
}

Buffer Buffer::copy_of(std::span<const std::byte> src) {
  Buffer b;
  b.append(BufView(Segment::copy_of(src)));
  return b;
}

Buffer Buffer::of_string(std::string_view s) {
  return copy_of({reinterpret_cast<const std::byte*>(s.data()), s.size()});
}

Buffer Buffer::zeros(std::size_t n) {
  Buffer b;
  b.append(BufView(Segment::zeros(n)));
  return b;
}

void Buffer::append(BufView v) {
  if (v.empty()) return;
  size_ += v.size();
  views_.push_back(std::move(v));
}

void Buffer::reserve(std::size_t views) {
  if (views > views_.capacity()) {
    views_.reserve(std::max(views, 2 * views_.capacity()));
  }
}

void Buffer::append(const Buffer& other) {
  if (&other == this) {
    Buffer copy = other;
    append(std::move(copy));
    return;
  }
  for (const BufView& v : other.views_) append(v);
}

void Buffer::append(Buffer&& other) {
  if (&other == this) {
    // Self-append: duplicate the view list (segments are shared either way).
    const std::size_t n = views_.size();
    views_.reserve(2 * n);
    for (std::size_t i = 0; i < n; ++i) append(views_[i]);
    return;
  }
  if (views_.empty()) {
    views_ = std::move(other.views_);
    size_ = other.size_;
  } else {
    for (BufView& v : other.views_) append(std::move(v));
  }
  other.views_.clear();
  other.size_ = 0;
}

Buffer::Position Buffer::locate(std::size_t offset) const {
  std::size_t i = 0;
  for (; i < views_.size(); ++i) {
    if (offset < views_[i].size()) return {i, offset};
    offset -= views_[i].size();
  }
  return {views_.size(), 0};
}

Buffer Buffer::slice(std::size_t offset, std::size_t length) const {
  return slice(locate(std::min(offset, size_)), length);
}

Buffer Buffer::slice(Position from, std::size_t length) const {
  ++t_stats.view_slices;
  Buffer b;
  std::size_t vi = from.view, vo = from.offset;
  while (length > 0 && vi < views_.size()) {
    BufView part = views_[vi].sub(vo, length);
    if (!part.empty()) {
      length -= part.size();
      b.size_ += part.size();
      b.views_.push_back(std::move(part));
    }
    ++vi;
    vo = 0;
  }
  return b;
}

std::size_t Buffer::copy_to(std::size_t offset,
                            std::span<std::byte> out) const {
  if (offset >= size_ || out.empty()) return 0;
  const std::size_t len = std::min(out.size(), size_ - offset);
  std::size_t copied = 0;
  auto [vi, vo] = locate(offset);
  while (copied < len) {
    const auto src = views_[vi].bytes().subspan(vo);
    const std::size_t n = std::min(len - copied, src.size());
    std::memcpy(out.data() + copied, src.data(), n);
    copied += n;
    ++vi;
    vo = 0;
  }
  t_stats.bytes_copied += len;
  return len;
}

std::vector<std::byte> Buffer::gather() const {
  ++t_stats.gather_calls;
  std::vector<std::byte> out(size_);
  copy_to(0, out);
  return out;
}

std::string Buffer::gather_string() const {
  ++t_stats.gather_calls;
  std::string out(size_, '\0');
  copy_to(0, {reinterpret_cast<std::byte*>(out.data()), out.size()});
  return out;
}

std::span<const std::byte> Buffer::contiguous(
    std::size_t offset, std::size_t length) const noexcept {
  // Bounded without forming offset + length, which can wrap.
  if (length == 0 || offset > size_ || length > size_ - offset) return {};
  auto [vi, vo] = locate(offset);
  const auto v = views_[vi].bytes();
  if (length > v.size() - vo) return {};
  return v.subspan(vo, length);
}

std::byte Buffer::at(std::size_t i) const {
  auto [vi, vo] = locate(i);
  return views_[vi].bytes()[vo];
}

std::size_t Buffer::find(std::string_view needle, std::size_t from) const {
  if (needle.empty()) return from <= size_ ? from : npos;
  if (size_ < needle.size()) return npos;
  const std::size_t last_start = size_ - needle.size();
  const auto first = static_cast<std::byte>(needle.front());
  std::size_t base = 0;
  for (std::size_t vi = 0; vi < views_.size(); ++vi) {
    const auto v = views_[vi].bytes();
    std::size_t i = from > base ? from - base : 0;
    for (; i < v.size(); ++i) {
      const std::size_t pos = base + i;
      if (pos > last_start) return npos;
      if (v[i] != first) continue;
      // Tail comparison, walking segments from (vi, i).
      std::size_t wvi = vi, wvo = i, matched = 0;
      while (matched < needle.size()) {
        const auto w = views_[wvi].bytes();
        const std::size_t n =
            std::min(needle.size() - matched, w.size() - wvo);
        if (std::memcmp(w.data() + wvo, needle.data() + matched, n) != 0) {
          break;
        }
        matched += n;
        ++wvi;
        wvo = 0;
      }
      if (matched == needle.size()) return pos;
    }
    base += v.size();
  }
  return npos;
}

bool Buffer::ends_with(std::string_view tail) const {
  if (tail.size() > size_) return false;
  return find(tail, size_ - tail.size()) == size_ - tail.size();
}

bool Buffer::content_equals(std::span<const std::byte> bytes) const {
  if (bytes.size() != size_) return false;
  std::size_t off = 0;
  for (const BufView& v : views_) {
    const auto s = v.bytes();
    if (std::memcmp(s.data(), bytes.data() + off, s.size()) != 0) return false;
    off += s.size();
  }
  return true;
}

bool Buffer::content_equals(const Buffer& other) const {
  if (other.size_ != size_) return false;
  auto a = begin(), b = other.begin();
  for (; a != end(); ++a, ++b) {
    if (*a != *b) return false;
  }
  return true;
}

// --- iterator ---

void Buffer::const_iterator::skip_empty() {
  while (view_ < buf_->views().size() &&
         pos_ >= buf_->views()[view_].size()) {
    ++view_;
    pos_ = 0;
  }
}

Buffer::const_iterator& Buffer::const_iterator::operator++() {
  ++pos_;
  skip_empty();
  return *this;
}

Buffer::const_iterator Buffer::begin() const {
  const_iterator it(this, 0, 0);
  it.skip_empty();
  return it;
}

Buffer::const_iterator Buffer::end() const {
  return const_iterator(this, views_.size(), 0);
}

}  // namespace imca
