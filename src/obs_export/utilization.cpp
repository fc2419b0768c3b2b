#include "obs_export/utilization.hpp"

#include <string>
#include <unordered_map>

#include "core/timeline_profile.hpp"
#include "util/parse.hpp"

namespace gridbw::obs {
namespace {

PortUtilization summarize(const TimelineProfile& profile, std::size_t port,
                          bool is_ingress, Bandwidth capacity, TimePoint t0,
                          TimePoint t1) {
  PortUtilization u;
  u.port = port;
  u.is_ingress = is_ingress;
  u.capacity = capacity;
  u.peak = Bandwidth::bytes_per_second(profile.max_over(t0, t1));
  u.peak_ratio = capacity.is_positive() ? u.peak / capacity : 0.0;
  u.carried = Volume::bytes(profile.integral(t0, t1));
  const Volume deliverable = capacity * (t1 - t0);
  u.mean_ratio = deliverable.is_positive() ? u.carried / deliverable : 0.0;

  u.series.push_back(UtilSample{t0, Bandwidth::bytes_per_second(profile.value_at(t0))});
  for (const TimePoint bp : profile.breakpoints()) {
    if (!(bp > t0) || !(bp < t1)) continue;
    u.series.push_back(
        UtilSample{bp, Bandwidth::bytes_per_second(profile.value_at(bp))});
  }
  return u;
}

void write_port_csv(std::ostream& out, std::string_view label,
                    const PortUtilization& u) {
  const char* kind = u.is_ingress ? "ingress" : "egress";
  out << label << ",summary," << kind << ',' << u.port << ",,,"
      << format_shortest(u.capacity.to_bytes_per_second()) << ','
      << format_shortest(u.peak.to_bytes_per_second()) << ','
      << format_shortest(u.peak_ratio) << ','
      << format_shortest(u.carried.to_bytes()) << ','
      << format_shortest(u.mean_ratio) << '\n';
  for (const UtilSample& s : u.series) {
    out << label << ",sample," << kind << ',' << u.port << ','
        << format_shortest(s.at.to_seconds()) << ','
        << format_shortest(s.load.to_bytes_per_second()) << ','
        << format_shortest(u.capacity.to_bytes_per_second()) << ",,,,\n";
  }
}

void write_port_json(std::ostream& out, const PortUtilization& u) {
  out << "{\"port\":" << u.port << ",\"capacity_bps\":"
      << format_shortest(u.capacity.to_bytes_per_second())
      << ",\"peak_bps\":" << format_shortest(u.peak.to_bytes_per_second())
      << ",\"peak_ratio\":" << format_shortest(u.peak_ratio)
      << ",\"carried_bytes\":" << format_shortest(u.carried.to_bytes())
      << ",\"mean_ratio\":" << format_shortest(u.mean_ratio) << ",\"series\":[";
  for (std::size_t s = 0; s < u.series.size(); ++s) {
    out << (s == 0 ? "" : ",") << "["
        << format_shortest(u.series[s].at.to_seconds()) << ","
        << format_shortest(u.series[s].load.to_bytes_per_second()) << "]";
  }
  out << "]}";
}

}  // namespace

Volume UtilizationReport::total_carried() const {
  Volume total = Volume::zero();
  for (const PortUtilization& u : ingress) total += u.carried;
  return total;
}

void UtilizationReport::write_csv_header(std::ostream& out) {
  out << "scheduler,row,kind,port,time_s,load_bps,capacity_bps,peak_bps,"
         "peak_ratio,carried_bytes,mean_ratio\n";
}

void UtilizationReport::write_csv(std::ostream& out, std::string_view label) const {
  for (const PortUtilization& u : ingress) write_port_csv(out, label, u);
  for (const PortUtilization& u : egress) write_port_csv(out, label, u);
}

void UtilizationReport::write_json(std::ostream& out, std::string_view label) const {
  out << "{\"scheduler\":\"" << label << "\",\"window\":["
      << format_shortest(window_start.to_seconds()) << ","
      << format_shortest(window_end.to_seconds())
      << "],\"ingress\":[";
  for (std::size_t p = 0; p < ingress.size(); ++p) {
    if (p != 0) out << ",";
    write_port_json(out, ingress[p]);
  }
  out << "],\"egress\":[";
  for (std::size_t p = 0; p < egress.size(); ++p) {
    if (p != 0) out << ",";
    write_port_json(out, egress[p]);
  }
  out << "]}\n";
}

UtilizationReport utilization_report(const Network& network,
                                     std::span<const Request> requests,
                                     const Schedule& schedule, TimePoint window_start,
                                     TimePoint window_end) {
  std::unordered_map<RequestId, const Request*> by_id;
  by_id.reserve(requests.size());
  for (const Request& r : requests) by_id.emplace(r.id, &r);

  std::vector<TimelineProfile> in_load(network.ingress_count());
  std::vector<TimelineProfile> out_load(network.egress_count());
  for (const Assignment& a : schedule.assignments()) {
    const auto it = by_id.find(a.request);
    if (it == by_id.end() || !a.bw.is_positive()) continue;
    const Request& r = *it->second;
    a.for_each_segment(r, [&](TimePoint t0, TimePoint t1, Bandwidth rate) {
      in_load[r.ingress.value].add(t0, t1, rate.to_bytes_per_second());
      out_load[r.egress.value].add(t0, t1, rate.to_bytes_per_second());
    });
  }

  UtilizationReport report;
  report.window_start = window_start;
  report.window_end = window_end;
  report.ingress.reserve(in_load.size());
  for (std::size_t p = 0; p < in_load.size(); ++p) {
    report.ingress.push_back(summarize(in_load[p], p, true,
                                       network.ingress_capacity(IngressId{p}),
                                       window_start, window_end));
  }
  report.egress.reserve(out_load.size());
  for (std::size_t p = 0; p < out_load.size(); ++p) {
    report.egress.push_back(summarize(out_load[p], p, false,
                                      network.egress_capacity(EgressId{p}),
                                      window_start, window_end));
  }
  return report;
}

}  // namespace gridbw::obs
