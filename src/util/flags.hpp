// gridbw/util/flags.hpp
//
// Minimal --key=value command-line parsing for the bench and example
// binaries (kept dependency-free; google-benchmark binaries use its own
// parser and only consult this for the flags it ignores).

#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace gridbw {

/// Parses `--key=value` and bare `--key` (value "true") arguments. Unknown
/// positional arguments are collected separately. Typed getters parse the
/// whole value strictly (util/parse.hpp) and throw ValueError naming the
/// flag on anything else.
class Flags {
 public:
  Flags(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;

  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Comma-separated list of doubles, e.g. --f=0.2,0.5,0.8.
  [[nodiscard]] std::vector<double> get_double_list(const std::string& key,
                                                    std::vector<double> fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  /// Throws ValueError naming the first flag (in key order) that is not in
  /// `known`, so a misspelt flag is a usage error rather than a run on the
  /// default it was meant to override.
  void require_known(std::span<const std::string_view> known) const;
  void require_known(std::initializer_list<std::string_view> known) const {
    require_known(std::span{known.begin(), known.size()});
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace gridbw
