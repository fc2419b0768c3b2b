#include "heuristics/parse.hpp"

#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "util/parse.hpp"

namespace gridbw::heuristics {
namespace {

[[noreturn]] void fail(const std::string& spec, const std::string& why) {
  throw std::invalid_argument{"parse_scheduler: '" + spec + "': " + why};
}

struct Options {
  std::map<std::string, std::string> values;  // key -> value ("" for bare flags)

  static Options parse(const std::string& spec, const std::string& text) {
    Options out;
    std::stringstream ss{text};
    std::string token;
    while (std::getline(ss, token, ',')) {
      if (token.empty()) fail(spec, "empty option");
      const auto eq = token.find('=');
      const std::string key = eq == std::string::npos ? token : token.substr(0, eq);
      const std::string value = eq == std::string::npos ? "" : token.substr(eq + 1);
      if (!out.values.emplace(key, value).second) {
        fail(spec, "duplicate option '" + key + "'");
      }
    }
    return out;
  }

  /// The value of `key` read by one of util/parse.hpp's strict parsers, or
  /// nullopt when the spec does not give it.
  template <typename T>
  std::optional<T> value(const std::string& spec, const std::string& key,
                         T (*read)(const std::string&, const std::string&)) {
    const auto it = values.find(key);
    if (it == values.end()) return std::nullopt;
    try {
      const T v = read(key, it->second);
      values.erase(it);
      return v;
    } catch (const ValueError& e) {
      fail(spec, e.what());
    }
  }

  bool flag(const std::string& key) {
    const auto it = values.find(key);
    if (it == values.end() || !it->second.empty()) return false;
    values.erase(it);
    return true;
  }

  void expect_empty(const std::string& spec) {
    if (!values.empty()) fail(spec, "unknown option '" + values.begin()->first + "'");
  }
};

/// Extracts the policy from `opts`: `minrate` or `f=<x>` (default MinRate).
BandwidthPolicy take_policy(const std::string& spec, Options& opts) {
  const bool minrate = opts.flag("minrate");
  const std::optional<double> f = opts.value(spec, "f", parse_double);
  if (!f.has_value()) return BandwidthPolicy::min_rate();
  if (!(*f > 0.0 && *f <= 1.0)) fail(spec, "f must be in (0, 1]");
  if (minrate) fail(spec, "give either 'minrate' or 'f=', not both");
  return BandwidthPolicy::fraction_of_max(*f);
}

/// Extracts the interval length `step=<s>` in seconds (default 400).
Duration take_step(const std::string& spec, Options& opts) {
  const double step = opts.value(spec, "step", parse_double).value_or(400.0);
  if (!(step > 0.0)) fail(spec, "step must be positive");
  return Duration::seconds(step);
}

}  // namespace

NamedScheduler parse_scheduler(const std::string& spec) {
  const auto colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const std::string rest = colon == std::string::npos ? "" : spec.substr(colon + 1);

  if (kind == "fcfs") {
    if (!rest.empty()) fail(spec, "fcfs takes no options");
    return make_fcfs();
  }
  if (kind == "cumulated" || kind == "minbw" || kind == "minvol") {
    if (!rest.empty()) fail(spec, kind + " takes no options");
    const SlotCost cost = kind == "cumulated" ? SlotCost::kCumulated
                          : kind == "minbw"   ? SlotCost::kMinBandwidth
                                              : SlotCost::kMinVolume;
    return make_slots(cost);
  }
  if (kind == "greedy") {
    Options opts = Options::parse(spec, rest);
    const BandwidthPolicy policy = take_policy(spec, opts);
    opts.expect_empty(spec);
    return make_greedy(policy);
  }
  if (kind == "window") {
    Options opts = Options::parse(spec, rest);
    WindowOptions w;
    w.policy = take_policy(spec, opts);
    w.step = take_step(spec, opts);
    w.hotspot_weight = opts.value(spec, "hotspot", parse_double).value_or(0.0);
    if (!(w.hotspot_weight >= 0.0)) fail(spec, "hotspot weight must be >= 0");
    opts.expect_empty(spec);
    return make_window(w);
  }
  if (kind == "mgreedy" || kind == "mwindow") {
    Options opts = Options::parse(spec, rest);
    MalleableOptions m;
    m.policy = take_policy(spec, opts);
    m.reshape = !opts.flag("rigid");
    if (kind == "mwindow") m.step = take_step(spec, opts);
    opts.expect_empty(spec);
    return kind == "mgreedy" ? make_malleable_greedy(m) : make_malleable_window(m);
  }
  if (kind == "bookahead") {
    Options opts = Options::parse(spec, rest);
    BookAheadOptions b;
    b.policy = take_policy(spec, opts);
    b.step = take_step(spec, opts);
    const std::int64_t ahead = opts.value(spec, "ahead", parse_int).value_or(4);
    if (ahead < 0) fail(spec, "ahead must be >= 0");
    b.max_book_ahead = static_cast<std::size_t>(ahead);
    opts.expect_empty(spec);
    return make_bookahead(b);
  }
  fail(spec, "unknown scheduler kind '" + kind + "'");
}

std::string scheduler_grammar() {
  return "scheduler spec:\n"
         "  fcfs | cumulated | minbw | minvol          (rigid, §4)\n"
         "  greedy:[minrate|f=<x>]                     (Algorithm 2; 0 < x <= 1)\n"
         "  window:step=<s>[,minrate|f=<x>][,hotspot=<w>]   (Algorithm 3)\n"
         "  mgreedy:[minrate|f=<x>][,rigid]            (malleable, reshapes on departures)\n"
         "  mwindow:step=<s>[,minrate|f=<x>][,rigid]   (malleable WINDOW)\n"
         "  bookahead:step=<s>,ahead=<k>[,minrate|f=<x>]    (advance reservations)\n";
}

}  // namespace gridbw::heuristics
