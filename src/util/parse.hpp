// gridbw/util/parse.hpp
//
// The one strict value parser behind Flags (command lines) and Config (INI
// files). A value parses only when the whole string is one base-10 integer,
// one finite decimal number, or one boolean word; anything else — trailing
// junk, an empty string, inf/nan, an out-of-range integer — throws
// ValueError naming the key. `format_shortest` is its inverse: the shortest
// text that parses back to the same double.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace gridbw {

/// A flag or config value that is not of the requested type.
class ValueError : public std::runtime_error {
 public:
  ValueError(const std::string& key, const std::string& value,
             const std::string& expected);

  /// The flag name or dotted config key whose value was rejected.
  [[nodiscard]] const std::string& key() const { return key_; }

 private:
  std::string key_;
};

[[nodiscard]] std::int64_t parse_int(const std::string& key, const std::string& value);

/// A non-negative integer over the full 64-bit range (ids, port indices):
/// a sign, including "-0", is malformed.
[[nodiscard]] std::uint64_t parse_uint(const std::string& key, const std::string& value);

/// Rejects non-finite results as well as malformed text.
[[nodiscard]] double parse_double(const std::string& key, const std::string& value);

/// The shortest decimal text (std::to_chars) that reads back as exactly
/// `value`: parse_double(key, format_shortest(v)) == v for every finite v.
[[nodiscard]] std::string format_shortest(double value);

/// true/1/yes/on or false/0/no/off, case-insensitive.
[[nodiscard]] bool parse_bool(const std::string& key, const std::string& value);

}  // namespace gridbw
