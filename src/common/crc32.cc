#include "common/crc32.h"

#include <array>

namespace imca {
namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;

// Slicing-by-8 tables: kTables[0] is the classic byte table, and
// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups fold eight input bytes at once.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr auto kTables = make_tables();

// Four bytes as a little-endian word, whatever the host's byte order.
std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint32_t update(std::uint32_t crc, const unsigned char* p,
                     std::size_t n) noexcept {
  const auto& t = kTables;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
          t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data) noexcept {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  return ~update(0xFFFFFFFFu, p, data.size());
}

std::uint32_t crc32(std::string_view data) noexcept {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  return ~update(0xFFFFFFFFu, p, data.size());
}

std::uint32_t libmemcache_hash(std::string_view key) noexcept {
  return (crc32(key) >> 16) & 0x7FFFu;
}

}  // namespace imca
