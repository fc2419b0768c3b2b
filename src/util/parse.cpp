#include "util/parse.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>

namespace gridbw {

ValueError::ValueError(const std::string& key, const std::string& value,
                       const std::string& expected)
    : std::runtime_error{"'" + key + "' is not " + expected + ": '" + value + "'"},
      key_{key} {}

namespace {

/// Parses all of `value` with std::from_chars (locale-free, no leading
/// whitespace or '+'); false on any unconsumed character or range error.
template <typename T>
bool parse_whole(const std::string& value, T& out) {
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

std::int64_t parse_int(const std::string& key, const std::string& value) {
  std::int64_t out = 0;
  if (!parse_whole(value, out)) throw ValueError{key, value, "an integer"};
  return out;
}

std::uint64_t parse_uint(const std::string& key, const std::string& value) {
  std::uint64_t out = 0;
  if (!parse_whole(value, out)) throw ValueError{key, value, "a non-negative integer"};
  return out;
}

double parse_double(const std::string& key, const std::string& value) {
  double out = 0.0;
  if (!parse_whole(value, out) || !std::isfinite(out)) {
    throw ValueError{key, value, "a finite number"};
  }
  return out;
}

std::string format_shortest(double value) {
  // 32 bytes hold the longest shortest form ("-2.2250738585072014e-308").
  std::array<char, 32> buf{};
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), value);
  return std::string{buf.data(), res.ptr};
}

bool parse_bool(const std::string& key, const std::string& value) {
  std::string lowered = value;
  std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lowered == "true" || lowered == "1" || lowered == "yes" || lowered == "on") {
    return true;
  }
  if (lowered == "false" || lowered == "0" || lowered == "no" || lowered == "off") {
    return false;
  }
  throw ValueError{key, value, "a boolean"};
}

}  // namespace gridbw
