// Strict number parsing for command-line values: all of the text must be
// one number that fits the type, or there is no value. "5O", "two", "2x",
// "" and, for an unsigned type, "-1" all fail, where strtoull/atof would
// quietly return a prefix, a zero or a wrapped value.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace imca {

// `text` as a T (decimal for integers, plain or scientific notation for
// floating point), or nullopt unless from_chars consumed every character.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || text.empty()) return std::nullopt;
  return value;
}

}  // namespace imca
