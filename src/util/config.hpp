// gridbw/util/config.hpp
//
// Minimal INI-style configuration files for the CLI simulator and custom
// experiment definitions:
//
//   # comment
//   [workload]
//   interarrival = 2.5        ; inline comments too
//   horizon = 1200
//
//   [scheduler]
//   spec = window:step=400,f=0.8
//
// Keys are looked up as "section.key". Parsing is strict: malformed lines,
// duplicate keys, and values requested with the wrong type all throw (typed
// values go through util/parse.hpp, whose ValueError names the key).

#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace gridbw {

class Config {
 public:
  /// Parses INI text. Throws std::runtime_error naming the offending line.
  [[nodiscard]] static Config parse(std::istream& is);
  [[nodiscard]] static Config parse_string(const std::string& text);
  [[nodiscard]] static Config parse_file(const std::string& path);

  [[nodiscard]] bool has(const std::string& dotted_key) const;

  /// Raw string value; nullopt if absent.
  [[nodiscard]] std::optional<std::string> get(const std::string& dotted_key) const;

  [[nodiscard]] std::string get_string(const std::string& dotted_key,
                                       const std::string& fallback) const;
  /// The typed getters throw ValueError (a std::runtime_error) when the key
  /// is present but its value is not of the type.
  [[nodiscard]] double get_double(const std::string& dotted_key, double fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& dotted_key,
                                     std::int64_t fallback) const;
  [[nodiscard]] bool get_bool(const std::string& dotted_key, bool fallback) const;

  /// All keys, in file order (for diagnostics / round-trip tests).
  [[nodiscard]] std::vector<std::string> keys() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> order_;
};

}  // namespace gridbw
