#include "core/schedule_io.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <unordered_map>

#include "core/timeline_profile.hpp"
#include "util/parse.hpp"

namespace gridbw {
namespace {

constexpr const char* kHeader = "request,start_s,bw_bps";
constexpr const char* kHeaderProfiled = "request,start_s,bw_bps,profile";

/// Parses a complete cell as a double; rejects trailing garbage, empty
/// cells, and hex/inf/nan spellings to_chars never emits.
double parse_double(std::string_view cell, const char* what, std::size_t line_no) {
  double value = 0.0;
  const auto res = std::from_chars(cell.data(), cell.data() + cell.size(), value);
  if (res.ec != std::errc{} || res.ptr != cell.data() + cell.size()) {
    throw std::runtime_error{"read_schedule: line " + std::to_string(line_no) +
                             ": bad " + std::string{what} + " '" + std::string{cell} +
                             "'"};
  }
  return value;
}

/// Profile cell grammar: `from@rate` steps joined by ';', closed by `;$end`
/// (e.g. "0@5e+07;10@1e+08;$20"). An empty cell means a constant row.
void append_profile(std::string& out, const RateProfile& profile) {
  for (const RateStep& s : profile.steps()) {
    out += format_shortest(s.from.to_seconds());
    out.push_back('@');
    out += format_shortest(s.rate.to_bytes_per_second());
    out.push_back(';');
  }
  out.push_back('$');
  out += format_shortest(profile.end().to_seconds());
}

RateProfile parse_profile(std::string_view cell, std::size_t line_no) {
  RateProfile profile;
  bool closed = false;
  bool have_prev = false;
  double prev_from = 0.0;
  while (!cell.empty()) {
    const std::size_t semi = cell.find(';');
    const std::string_view token = cell.substr(0, semi);
    cell = semi == std::string_view::npos ? std::string_view{} : cell.substr(semi + 1);
    if (closed || token.empty()) {
      throw std::runtime_error{"read_schedule: line " + std::to_string(line_no) +
                               ": malformed profile cell"};
    }
    if (token.front() == '$') {
      profile.set_end(
          TimePoint::at_seconds(parse_double(token.substr(1), "profile end", line_no)));
      closed = true;
      continue;
    }
    const std::size_t at = token.find('@');
    if (at == std::string_view::npos) {
      throw std::runtime_error{"read_schedule: line " + std::to_string(line_no) +
                               ": profile step missing '@'"};
    }
    const double from = parse_double(token.substr(0, at), "step from", line_no);
    // RateProfile::append coalesces/overwrites in-process builders; at the
    // IO boundary a non-increasing step is corrupt input, not a rebuild
    // request — the writer only ever emits strictly increasing instants.
    if (have_prev && !(from > prev_from)) {
      throw std::runtime_error{"read_schedule: line " + std::to_string(line_no) +
                               ": profile steps not strictly increasing"};
    }
    have_prev = true;
    prev_from = from;
    profile.append(TimePoint::at_seconds(from),
                   Bandwidth::bytes_per_second(
                       parse_double(token.substr(at + 1), "step rate", line_no)));
  }
  if (!closed) {
    throw std::runtime_error{"read_schedule: line " + std::to_string(line_no) +
                             ": profile cell missing '$end'"};
  }
  return profile;
}

}  // namespace

void write_schedule(std::ostream& os, const Schedule& schedule) {
  std::vector<Assignment> rows{schedule.assignments().begin(),
                               schedule.assignments().end()};
  std::sort(rows.begin(), rows.end(), [](const Assignment& a, const Assignment& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.request < b.request;
  });
  const bool any_profiled =
      std::any_of(rows.begin(), rows.end(),
                  [](const Assignment& a) { return a.is_profiled(); });
  os << (any_profiled ? kHeaderProfiled : kHeader) << '\n';
  std::string line;
  for (const Assignment& a : rows) {
    line.clear();
    line += std::to_string(static_cast<unsigned long long>(a.request));
    line.push_back(',');
    line += format_shortest(a.start.to_seconds());
    line.push_back(',');
    line += format_shortest(a.bw.to_bytes_per_second());
    if (any_profiled) {
      line.push_back(',');
      if (a.is_profiled()) append_profile(line, a.profile);
    }
    os << line << '\n';
  }
}

void write_schedule_file(const std::string& path, const Schedule& schedule) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"write_schedule_file: cannot open " + path};
  write_schedule(out, schedule);
}

Schedule read_schedule(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || (line != kHeader && line != kHeaderProfiled)) {
    throw std::runtime_error{"read_schedule: missing or wrong header"};
  }
  const bool profiled_format = line == kHeaderProfiled;
  const std::size_t fields = profiled_format ? 4 : 3;
  Schedule schedule;
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::array<std::string_view, 4> cell;
    std::string_view rest{line};
    for (std::size_t f = 0; f < fields; ++f) {
      const std::size_t comma = rest.find(',');
      const bool last = f + 1 == fields;
      if (last != (comma == std::string_view::npos)) {
        throw std::runtime_error{"read_schedule: line " + std::to_string(line_no) +
                                 ": expected " + std::to_string(fields) + " fields"};
      }
      cell[f] = last ? rest : rest.substr(0, comma);
      if (!last) rest = rest.substr(comma + 1);
    }
    unsigned long long id_value = 0;
    const auto id_res = std::from_chars(cell[0].data(), cell[0].data() + cell[0].size(),
                                        id_value);
    if (id_res.ec != std::errc{} || id_res.ptr != cell[0].data() + cell[0].size()) {
      throw std::runtime_error{"read_schedule: line " + std::to_string(line_no) +
                               ": bad request id '" + std::string{cell[0]} + "'"};
    }
    const auto id = static_cast<RequestId>(id_value);
    if (schedule.is_accepted(id)) {
      throw std::runtime_error{"read_schedule: line " + std::to_string(line_no) +
                               ": duplicate assignment for request " +
                               std::string{cell[0]}};
    }
    const TimePoint start = TimePoint::at_seconds(parse_double(cell[1], "start", line_no));
    const Bandwidth bw =
        Bandwidth::bytes_per_second(parse_double(cell[2], "bw", line_no));
    if (profiled_format && !cell[3].empty()) {
      RateProfile profile = parse_profile(cell[3], line_no);
      if (profile.empty() || profile.start() != start) {
        throw std::runtime_error{"read_schedule: line " + std::to_string(line_no) +
                                 ": profile start disagrees with start_s"};
      }
      try {
        schedule.accept_profile(id, std::move(profile));
      } catch (const std::exception& e) {
        throw std::runtime_error{"read_schedule: line " + std::to_string(line_no) +
                                 ": " + e.what()};
      }
    } else {
      schedule.accept(id, start, bw);
    }
  }
  return schedule;
}

Schedule read_schedule_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"read_schedule_file: cannot open " + path};
  return read_schedule(in);
}

std::string render_ingress_gantt(const Network& network,
                                 std::span<const Request> requests,
                                 const Schedule& schedule, TimePoint t0, TimePoint t1,
                                 std::size_t columns) {
  if (!(t0 < t1)) throw std::invalid_argument{"render_ingress_gantt: empty window"};
  if (columns == 0) throw std::invalid_argument{"render_ingress_gantt: zero columns"};

  std::vector<TimelineProfile> load(network.ingress_count());
  std::unordered_map<RequestId, const Request*> by_id;
  for (const Request& r : requests) by_id.emplace(r.id, &r);
  for (const Assignment& a : schedule.assignments()) {
    const auto it = by_id.find(a.request);
    if (it == by_id.end()) continue;
    TimelineProfile& port = load.at(it->second->ingress.value);
    a.for_each_segment(*it->second, [&](TimePoint s0, TimePoint s1, Bandwidth rate) {
      port.add(s0, s1, rate.to_bytes_per_second());
    });
  }

  const Duration bucket = (t1 - t0) / static_cast<double>(columns);
  std::ostringstream oss;
  std::array<char, 32> label{};
  for (std::size_t i = 0; i < load.size(); ++i) {
    std::snprintf(label.data(), label.size(), "in%-3zu |", i);
    oss << label.data();
    const double cap = network.ingress_capacity(IngressId{i}).to_bytes_per_second();
    for (std::size_t c = 0; c < columns; ++c) {
      const TimePoint lo = t0 + bucket * static_cast<double>(c);
      const double peak = load[i].max_over(lo, lo + bucket);
      const double util = peak / cap;
      const char glyph = util <= 1e-9   ? ' '
                         : util < 0.25  ? '.'
                         : util < 0.5   ? ':'
                         : util < 0.85  ? '+'
                                        : '#';
      oss << glyph;
    }
    oss << "|\n";
  }
  return oss.str();
}

}  // namespace gridbw
