// Byte buffer with separate write (append) and read (cursor) views.
//
// Used as the wire representation everywhere bytes cross the simulated
// network: RPC argument marshalling and the memcached text protocol both
// build and parse real byte sequences, so message sizes charged to the links
// are the sizes of actual encodings, not estimates.
//
// Storage is a Buffer (refcounted segment chain) plus a small mutable append
// tail: a segment block written in place (from kTailBytes, doubling) whose
// runs are handed to the chain as views when sealed. The ByteBuf keeps the
// block after a seal and writes the next run (a protocol trailer after a
// payload) into its spare capacity, past the end of every view, so a
// header, payload, trailer message costs one block. Headers and protocol
// text are encoded into the tail; payloads enter
// through put_buffer()/put_bytes(Buffer), which splice the caller's segments
// in without copying, and leave through get_view()/get_bytes(), which hand
// back zero-copy slices of the receive buffer. The payload bytes of a reply
// are therefore the same storage the cache or disk produced — only the few
// header bytes around them are ever re-encoded per hop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/buffer.h"
#include "common/errc.h"
#include "common/expected.h"

namespace imca {

class ByteBuf {
 public:
  ByteBuf() = default;
  explicit ByteBuf(std::vector<std::byte> data)
      : chain_(Buffer::take(std::move(data))) {}
  explicit ByteBuf(Buffer data) : chain_(std::move(data)) {}

  // Copying seals the source's append tail first, and the copy starts a
  // fresh tail: only the ByteBuf that wrote a block writes its spare
  // capacity (retry paths copy the request).
  ByteBuf(const ByteBuf& other);
  ByteBuf& operator=(const ByteBuf& other);
  ByteBuf(ByteBuf&& other) noexcept;
  ByteBuf& operator=(ByteBuf&& other) noexcept;

  // --- writing (appends at the end) ---
  void put_u8(std::uint8_t v) { append(&v, 1); }
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  // Length-prefixed string (u32 length + bytes).
  void put_string(std::string_view s);
  // Length-prefixed blob, spliced in without copying.
  void put_bytes(const Buffer& b);
  // Raw bytes, no length prefix (protocol text, small headers; copies).
  void put_raw(std::string_view s);
  // Raw payload, spliced in without copying. The chain's view list is sized
  // here for the run before it, its views and one run after it.
  void put_buffer(const Buffer& b);
  // Make room for `n` more bytes in the append tail, so the puts that follow
  // write one block.
  void reserve(std::size_t n);

  // --- reading (advances the cursor) ---
  Expected<std::uint8_t> get_u8();
  Expected<std::uint16_t> get_u16();
  Expected<std::uint32_t> get_u32();
  Expected<std::uint64_t> get_u64();
  Expected<std::int64_t> get_i64();
  Expected<std::string> get_string();
  // Length-prefixed blob as a zero-copy slice of this buffer's storage.
  Expected<Buffer> get_bytes();
  // Raw bytes of an exact size (no prefix), zero-copy.
  Expected<Buffer> get_view(std::size_t n);

  // --- inspection ---
  std::size_t size() const noexcept { return chain_.size() + unsealed(); }
  std::size_t remaining() const noexcept { return size() - cursor_; }
  bool exhausted() const noexcept { return remaining() == 0; }
  // The full contents as a segment chain (seals the append tail).
  const Buffer& buffer() const;
  bool ends_with(std::string_view tail) const { return buffer().ends_with(tail); }
  void rewind() noexcept { cursor_ = 0; }

 private:
  void append(const void* p, std::size_t n);
  // Bytes written to the tail block since the last seal.
  std::size_t unsealed() const noexcept { return tail_.size() - tail_off_; }
  // Hand the tail's unsealed run to the chain as a view so reads and copies
  // see one immutable chain. Further appends go after it in the same block.
  void seal() const;
  Expected<void> need(std::size_t n) const;

  static constexpr std::size_t kTailBytes = 128;

  mutable Buffer chain_;
  mutable Segment tail_;
  // Where the tail's unsealed run starts; every byte before it is in a view.
  mutable std::size_t tail_off_ = 0;
  std::size_t cursor_ = 0;
};

// Convenience conversions between strings and payload bytes. These are the
// explicit workload-edge materialization points: to_buffer allocates a fresh
// segment holding the string's bytes; to_string(Buffer) gathers (counted in
// the copy ledger). Layers between the edges pass Buffer views instead.
std::vector<std::byte> to_bytes(std::string_view s);
Buffer to_buffer(std::string_view s);
std::string to_string(const Buffer& b);

}  // namespace imca
