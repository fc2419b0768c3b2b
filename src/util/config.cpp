#include "util/config.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/parse.hpp"

namespace gridbw {
namespace {

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

/// Strips a trailing comment that starts with '#' or ';' (no quoting
/// support — config values in this project never contain those characters).
std::string strip_comment(const std::string& s) {
  const auto pos = s.find_first_of("#;");
  return pos == std::string::npos ? s : s.substr(0, pos);
}

[[noreturn]] void fail(std::size_t line_no, const std::string& why) {
  throw std::runtime_error{"Config: line " + std::to_string(line_no) + ": " + why};
}

}  // namespace

Config Config::parse(std::istream& is) {
  Config config;
  std::string section;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string text = trim(strip_comment(line));
    if (text.empty()) continue;
    if (text.front() == '[') {
      if (text.back() != ']' || text.size() < 3) fail(line_no, "malformed section");
      section = trim(text.substr(1, text.size() - 2));
      if (section.empty()) fail(line_no, "empty section name");
      continue;
    }
    const auto eq = text.find('=');
    if (eq == std::string::npos) fail(line_no, "expected key = value");
    const std::string key = trim(text.substr(0, eq));
    const std::string value = trim(text.substr(eq + 1));
    if (key.empty()) fail(line_no, "empty key");
    const std::string dotted = section.empty() ? key : section + "." + key;
    if (!config.values_.emplace(dotted, value).second) {
      fail(line_no, "duplicate key '" + dotted + "'");
    }
    config.order_.push_back(dotted);
  }
  return config;
}

Config Config::parse_string(const std::string& text) {
  std::stringstream ss{text};
  return parse(ss);
}

Config Config::parse_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"Config: cannot open " + path};
  return parse(in);
}

bool Config::has(const std::string& dotted_key) const {
  return values_.count(dotted_key) > 0;
}

std::optional<std::string> Config::get(const std::string& dotted_key) const {
  const auto it = values_.find(dotted_key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& dotted_key,
                               const std::string& fallback) const {
  return get(dotted_key).value_or(fallback);
}

double Config::get_double(const std::string& dotted_key, double fallback) const {
  const auto value = get(dotted_key);
  return value.has_value() ? parse_double(dotted_key, *value) : fallback;
}

std::int64_t Config::get_int(const std::string& dotted_key,
                             std::int64_t fallback) const {
  const auto value = get(dotted_key);
  return value.has_value() ? parse_int(dotted_key, *value) : fallback;
}

bool Config::get_bool(const std::string& dotted_key, bool fallback) const {
  const auto value = get(dotted_key);
  return value.has_value() ? parse_bool(dotted_key, *value) : fallback;
}

std::vector<std::string> Config::keys() const { return order_; }

}  // namespace gridbw
