#include "common/bytebuf.h"

#include <algorithm>
#include <utility>

namespace imca {

ByteBuf::ByteBuf(const ByteBuf& other) {
  other.seal();
  chain_ = other.chain_;
  cursor_ = other.cursor_;
}

ByteBuf& ByteBuf::operator=(const ByteBuf& other) {
  if (this != &other) {
    other.seal();
    chain_ = other.chain_;
    tail_ = Segment{};
    tail_off_ = 0;
    cursor_ = other.cursor_;
  }
  return *this;
}

ByteBuf::ByteBuf(ByteBuf&& other) noexcept
    : chain_(std::move(other.chain_)),
      tail_(std::move(other.tail_)),
      tail_off_(std::exchange(other.tail_off_, 0)),
      cursor_(std::exchange(other.cursor_, 0)) {}

ByteBuf& ByteBuf::operator=(ByteBuf&& other) noexcept {
  if (this != &other) {
    chain_ = std::move(other.chain_);
    tail_ = std::move(other.tail_);
    tail_off_ = std::exchange(other.tail_off_, 0);
    cursor_ = std::exchange(other.cursor_, 0);
  }
  return *this;
}

void ByteBuf::seal() const {
  const std::size_t run = unsealed();
  if (run == 0) return;
  auto& st = buffer_stats();
  ++st.segments_allocated;
  st.segment_bytes += run;
  // The run becomes a view of the chain without a copy. Its bytes never
  // change: this ByteBuf writes only after tail_off_.
  chain_.append(BufView(tail_, tail_off_, run));
  tail_off_ = tail_.size();
}

void ByteBuf::reserve(std::size_t n) {
  if (tail_.valid() && tail_.capacity() - tail_.size() >= n) return;
  const std::size_t run = unsealed();
  std::size_t cap = std::max(kTailBytes, 2 * tail_.capacity());
  while (cap - run < n) cap *= 2;
  Segment grown = Segment::allocate(cap, 0);
  if (run != 0) grown.append_in_place(tail_.bytes().data() + tail_off_, run);
  tail_ = std::move(grown);
  tail_off_ = 0;
}

void ByteBuf::append(const void* p, std::size_t n) {
  if (n == 0) return;
  reserve(n);
  tail_.append_in_place(static_cast<const std::byte*>(p), n);
  buffer_stats().bytes_copied += n;
}

Expected<void> ByteBuf::need(std::size_t n) const {
  if (remaining() < n) return Errc::kProto;
  return {};
}

void ByteBuf::put_u16(std::uint16_t v) {
  std::uint8_t b[2] = {static_cast<std::uint8_t>(v),
                       static_cast<std::uint8_t>(v >> 8)};
  append(b, sizeof b);
}

void ByteBuf::put_u32(std::uint32_t v) {
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  append(b, sizeof b);
}

void ByteBuf::put_u64(std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  append(b, sizeof b);
}

void ByteBuf::put_string(std::string_view s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  put_raw(s);
}

void ByteBuf::put_bytes(const Buffer& b) {
  put_u32(static_cast<std::uint32_t>(b.size()));
  put_buffer(b);
}

void ByteBuf::put_raw(std::string_view s) { append(s.data(), s.size()); }

void ByteBuf::put_buffer(const Buffer& b) {
  if (b.empty()) return;
  chain_.reserve(chain_.segment_count() + b.segment_count() + 2);
  seal();
  chain_.append(b);
}

const Buffer& ByteBuf::buffer() const {
  seal();
  return chain_;
}

Expected<std::uint8_t> ByteBuf::get_u8() {
  if (auto r = need(1); !r) return r.error();
  return static_cast<std::uint8_t>(buffer().at(cursor_++));
}

Expected<std::uint16_t> ByteBuf::get_u16() {
  if (auto r = need(2); !r) return r.error();
  std::byte b[2];
  buffer().copy_to(cursor_, b);
  cursor_ += 2;
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v = static_cast<std::uint16_t>(
        v | (static_cast<std::uint16_t>(b[i]) << (8 * i)));
  }
  return v;
}

Expected<std::uint32_t> ByteBuf::get_u32() {
  if (auto r = need(4); !r) return r.error();
  std::byte b[4];
  buffer().copy_to(cursor_, b);
  cursor_ += 4;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  }
  return v;
}

Expected<std::uint64_t> ByteBuf::get_u64() {
  if (auto r = need(8); !r) return r.error();
  std::byte b[8];
  buffer().copy_to(cursor_, b);
  cursor_ += 8;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  }
  return v;
}

Expected<std::int64_t> ByteBuf::get_i64() {
  auto v = get_u64();
  if (!v) return v.error();
  return static_cast<std::int64_t>(*v);
}

Expected<std::string> ByteBuf::get_string() {
  auto len = get_u32();
  if (!len) return len.error();
  if (auto r = need(*len); !r) return r.error();
  std::string s(*len, '\0');
  buffer().copy_to(cursor_, {reinterpret_cast<std::byte*>(s.data()), s.size()});
  cursor_ += *len;
  return s;
}

Expected<Buffer> ByteBuf::get_bytes() {
  auto len = get_u32();
  if (!len) return len.error();
  return get_view(*len);
}

Expected<Buffer> ByteBuf::get_view(std::size_t n) {
  if (auto r = need(n); !r) return r.error();
  Buffer b = buffer().slice(cursor_, n);
  cursor_ += n;
  return b;
}

std::vector<std::byte> to_bytes(std::string_view s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return {p, p + s.size()};
}

Buffer to_buffer(std::string_view s) { return Buffer::of_string(s); }

std::string to_string(const Buffer& b) { return b.gather_string(); }

}  // namespace imca
