#include "util/flags.hpp"

#include <algorithm>
#include <sstream>

#include "util/parse.hpp"

namespace gridbw {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg.substr(2)] = "true";
    } else {
      values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
}

void Flags::require_known(std::span<const std::string_view> known) const {
  for (const auto& [key, value] : values_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw ValueError{"--" + key, value, "a known flag"};
    }
  }
}

bool Flags::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Flags::get_string(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_int("--" + key, it->second);
}

double Flags::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_double("--" + key, it->second);
}

bool Flags::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_bool("--" + key, it->second);
}

std::vector<double> Flags::get_double_list(const std::string& key,
                                           std::vector<double> fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::vector<double> out;
  std::stringstream ss{it->second};
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(parse_double("--" + key, item));
  }
  if (out.empty()) throw ValueError{"--" + key, it->second, "a list of numbers"};
  return out;
}

}  // namespace gridbw
