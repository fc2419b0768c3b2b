#include "workload/trace.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/parse.hpp"

namespace gridbw::workload {
namespace {

constexpr const char* kHeader =
    "id,ingress,egress,release_s,deadline_s,volume_bytes,max_rate_bps";

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::stringstream ss{line};
  std::string cell;
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  // A trailing comma means an empty last cell that getline drops; traces
  // never contain empty cells, so treat it as malformed via the count check.
  return cells;
}

}  // namespace

void write_trace(std::ostream& os, std::span<const Request> requests) {
  os << kHeader << '\n';
  // Shortest round-trip numbers: read_trace gives back the same doubles.
  for (const Request& r : requests) {
    os << r.id << ',' << r.ingress.value << ',' << r.egress.value << ','
       << format_shortest(r.release.to_seconds()) << ','
       << format_shortest(r.deadline.to_seconds()) << ','
       << format_shortest(r.volume.to_bytes()) << ','
       << format_shortest(r.max_rate.to_bytes_per_second()) << '\n';
  }
}

void write_trace_file(const std::string& path, std::span<const Request> requests) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"write_trace_file: cannot open " + path};
  write_trace(out, requests);
}

std::vector<Request> read_trace(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != kHeader) {
    throw std::runtime_error{"read_trace: missing or wrong header"};
  }
  std::vector<Request> requests;
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto cells = split_csv_line(line);
    if (cells.size() != 7) {
      throw std::runtime_error{"read_trace: line " + std::to_string(line_no) +
                               ": expected 7 fields, got " + std::to_string(cells.size())};
    }
    try {
      // Strict: whole-cell integers and finite numbers only; the error
      // names the column.
      Request r;
      r.id = parse_uint("id", cells[0]);
      r.ingress = IngressId{parse_uint("ingress", cells[1])};
      r.egress = EgressId{parse_uint("egress", cells[2])};
      r.release = TimePoint::at_seconds(parse_double("release_s", cells[3]));
      r.deadline = TimePoint::at_seconds(parse_double("deadline_s", cells[4]));
      r.volume = Volume::bytes(parse_double("volume_bytes", cells[5]));
      r.max_rate = Bandwidth::bytes_per_second(parse_double("max_rate_bps", cells[6]));
      if (!r.is_well_formed()) {
        throw std::runtime_error{"ill-formed request " + r.describe()};
      }
      requests.push_back(r);
    } catch (const std::exception& e) {
      throw std::runtime_error{"read_trace: line " + std::to_string(line_no) + ": " +
                               e.what()};
    }
  }
  return requests;
}

std::vector<Request> read_trace_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"read_trace_file: cannot open " + path};
  return read_trace(in);
}

}  // namespace gridbw::workload
