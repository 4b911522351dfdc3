// Size and time unit helpers.
//
// Simulated time is a plain count of nanoseconds (`SimTime`). We deliberately
// avoid std::chrono in the hot simulation path: the event loop compares and
// adds billions of timestamps and a raw integer keeps that transparent, while
// the helpers below keep call sites readable (`5 * kMilli`, `bytes / kMiB`).
#pragma once

#include <cstdint>

namespace imca {

// --- time (nanoseconds) ---
using SimTime = std::uint64_t;      // absolute simulated time since boot
using SimDuration = std::uint64_t;  // simulated interval

inline constexpr SimDuration kNano = 1;
inline constexpr SimDuration kMicro = 1000;
inline constexpr SimDuration kMilli = 1000 * kMicro;
inline constexpr SimDuration kSecond = 1000 * kMilli;

constexpr double to_seconds(SimDuration d) noexcept {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}
constexpr double to_millis(SimDuration d) noexcept {
  return static_cast<double>(d) / static_cast<double>(kMilli);
}
constexpr double to_micros(SimDuration d) noexcept {
  return static_cast<double>(d) / static_cast<double>(kMicro);
}

// Capped exponential backoff: the wait before retry `k` (0-based) is
// base * 2^k, at most `cap`. The shift stops at 16 doublings, which is past
// every cap in use and cannot overflow.
constexpr SimDuration backoff_delay(SimDuration base, std::uint64_t k,
                                    SimDuration cap) noexcept {
  const SimDuration raw = base << (k < 16 ? k : 16);
  return raw < cap ? raw : cap;
}

// --- sizes (bytes) ---
inline constexpr std::uint64_t kKiB = 1024;
inline constexpr std::uint64_t kMiB = 1024 * kKiB;
inline constexpr std::uint64_t kGiB = 1024 * kMiB;

constexpr double to_mib(std::uint64_t bytes) noexcept {
  return static_cast<double>(bytes) / static_cast<double>(kMiB);
}

// Time to move `bytes` at `bytes_per_second`, rounded up to whole nanoseconds
// so that back-to-back transfers never under-charge the link.
constexpr SimDuration transfer_time(std::uint64_t bytes,
                                    std::uint64_t bytes_per_second) noexcept {
  if (bytes_per_second == 0) return 0;
  // Split to avoid overflow of bytes * 1e9: whole seconds, then remainder.
  const std::uint64_t whole = bytes / bytes_per_second;
  const std::uint64_t rem = bytes % bytes_per_second;
  const std::uint64_t rem_ns =
      (rem * kSecond + bytes_per_second - 1) / bytes_per_second;
  return whole * kSecond + rem_ns;
}

}  // namespace imca
