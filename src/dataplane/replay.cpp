#include "dataplane/replay.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/timeline_profile.hpp"
#include "heuristics/water_fill.hpp"

namespace gridbw::dataplane {
namespace {

struct Flow {
  const Request* request;
  Assignment assignment;
  bool misbehaving;
};

std::vector<Flow> collect_flows(std::span<const Request> requests,
                                const Schedule& schedule,
                                const ReplayOptions& options) {
  if (options.misbehave_factor <= 1.0 && !options.misbehaving.empty()) {
    throw std::invalid_argument{"replay: misbehave_factor must be > 1"};
  }
  std::unordered_map<RequestId, const Request*> by_id;
  for (const Request& r : requests) by_id.emplace(r.id, &r);
  const std::unordered_set<RequestId> bad{options.misbehaving.begin(),
                                          options.misbehaving.end()};
  std::vector<Flow> flows;
  flows.reserve(schedule.accepted_count());
  for (const Assignment& a : schedule.assignments()) {
    const auto it = by_id.find(a.request);
    if (it == by_id.end()) {
      throw std::invalid_argument{"replay: schedule references unknown request " +
                                  std::to_string(a.request)};
    }
    flows.push_back(Flow{it->second, a, bad.count(a.request) > 0});
  }
  return flows;
}

}  // namespace

std::size_t ReplayReport::late_count() const {
  std::size_t count = 0;
  for (const TransferRecord& t : transfers) count += t.late() ? 1 : 0;
  return count;
}

Volume ReplayReport::total_dropped() const {
  Volume total = Volume::zero();
  for (const TransferRecord& t : transfers) total += t.dropped;
  return total;
}

ReplayReport replay_policed(const Network& network, std::span<const Request> requests,
                            const Schedule& schedule, const ReplayOptions& options) {
  const auto flows = collect_flows(requests, schedule, options);

  ReplayReport report;
  std::vector<TimelineProfile> in_load(network.ingress_count());
  std::vector<TimelineProfile> out_load(network.egress_count());

  for (const Flow& flow : flows) {
    const Request& r = *flow.request;
    const Assignment& a = flow.assignment;
    const TimePoint promised = a.end(r);
    // The policer clips delivery to the reserved rate: the transfer holds
    // its promised schedule regardless of the sender's offered rate, and
    // everything offered beyond the reservation is dropped at the access
    // point.
    TransferRecord record;
    record.id = r.id;
    record.promised_finish = promised;
    record.actual_finish = promised;
    record.misbehaving = flow.misbehaving;
    record.dropped = flow.misbehaving
                         ? r.volume * (options.misbehave_factor - 1.0)
                         : Volume::zero();
    report.transfers.push_back(record);

    // The policer enforces the reserved shape — for a profiled reservation
    // that is the step function itself, not its peak.
    a.for_each_segment(r, [&](TimePoint t0, TimePoint t1, Bandwidth rate) {
      in_load[r.ingress.value].add(t0, t1, rate.to_bytes_per_second());
      out_load[r.egress.value].add(t0, t1, rate.to_bytes_per_second());
    });
  }

  for (std::size_t i = 0; i < in_load.size(); ++i) {
    report.peak_port_utilization =
        std::max(report.peak_port_utilization,
                 in_load[i].global_max() /
                     network.ingress_capacity(IngressId{i}).to_bytes_per_second());
  }
  for (std::size_t e = 0; e < out_load.size(); ++e) {
    report.peak_port_utilization =
        std::max(report.peak_port_utilization,
                 out_load[e].global_max() /
                     network.egress_capacity(EgressId{e}).to_bytes_per_second());
  }
  return report;
}

ReplayReport replay_unpoliced(const Network& network, std::span<const Request> requests,
                              const Schedule& schedule, const ReplayOptions& options) {
  std::vector<Flow> flows = collect_flows(requests, schedule, options);
  std::sort(flows.begin(), flows.end(), [](const Flow& a, const Flow& b) {
    if (a.assignment.start != b.assignment.start) {
      return a.assignment.start < b.assignment.start;
    }
    return a.assignment.request < b.assignment.request;
  });

  ReplayReport report;
  report.transfers.resize(flows.size());
  for (std::size_t k = 0; k < flows.size(); ++k) {
    report.transfers[k].id = flows[k].request->id;
    report.transfers[k].promised_finish = flows[k].assignment.end(*flows[k].request);
    report.transfers[k].misbehaving = flows[k].misbehaving;
    report.transfers[k].dropped = Volume::zero();  // nothing polices, nothing drops
  }

  const std::vector<double> in_capacity =
      heuristics::to_bytes_per_second(network.ingress_capacities());
  const std::vector<double> out_capacity =
      heuristics::to_bytes_per_second(network.egress_capacities());
  std::vector<heuristics::FillFlow> fill;
  std::vector<double> rates;
  heuristics::FillScratch scratch;
  std::vector<double> in_sum;
  std::vector<double> out_sum;

  // Senders offer their reservation (times misbehave_factor when
  // misbehaving) and the ports share it max-min from guarantee 0.
  struct Live {
    std::size_t index;
    heuristics::FillFlow fill;
    double remaining_bytes;
  };
  std::vector<Live> live;
  std::size_t next_start = 0;
  TimePoint now =
      flows.empty() ? TimePoint::origin() : flows.front().assignment.start;

  while (next_start < flows.size() || !live.empty()) {
    if (live.empty()) now = flows[next_start].assignment.start;
    while (next_start < flows.size() && flows[next_start].assignment.start <= now) {
      const Flow& f = flows[next_start];
      const Bandwidth offered = f.misbehaving
                                    ? f.assignment.bw * options.misbehave_factor
                                    : f.assignment.bw;
      live.push_back(Live{next_start,
                          {f.request->ingress.value, f.request->egress.value, 0.0,
                           offered.to_bytes_per_second()},
                          f.request->volume.to_bytes()});
      ++next_start;
    }

    fill.clear();
    for (const Live& f : live) fill.push_back(f.fill);
    heuristics::water_fill(fill, in_capacity, out_capacity, rates, scratch);

    // Track the worst instantaneous port load (physically <= 1; reported
    // for symmetry with replay_policed).
    in_sum.assign(in_capacity.size(), 0.0);
    out_sum.assign(out_capacity.size(), 0.0);
    for (std::size_t f = 0; f < live.size(); ++f) {
      in_sum[live[f].fill.ingress] += rates[f];
      out_sum[live[f].fill.egress] += rates[f];
    }
    for (std::size_t i = 0; i < in_sum.size(); ++i) {
      report.peak_port_utilization =
          std::max(report.peak_port_utilization, in_sum[i] / in_capacity[i]);
    }
    for (std::size_t e = 0; e < out_sum.size(); ++e) {
      report.peak_port_utilization =
          std::max(report.peak_port_utilization, out_sum[e] / out_capacity[e]);
    }

    double dt = std::numeric_limits<double>::infinity();
    if (next_start < flows.size()) {
      dt = flows[next_start].assignment.start.to_seconds() - now.to_seconds();
    }
    for (std::size_t f = 0; f < live.size(); ++f) {
      if (rates[f] > 0.0) dt = std::min(dt, live[f].remaining_bytes / rates[f]);
    }
    dt = std::max(dt, 0.0);

    now += Duration::seconds(dt);
    for (std::size_t f = 0; f < live.size(); ++f) {
      live[f].remaining_bytes = std::max(0.0, live[f].remaining_bytes - rates[f] * dt);
    }
    std::erase_if(live, [&](const Live& f) {
      if (f.remaining_bytes <= 1e-3) {
        report.transfers[f.index].actual_finish = now;
        return true;
      }
      return false;
    });
  }
  return report;
}

}  // namespace gridbw::dataplane
