#include "dataplane/replay.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "baseline/fluid.hpp"
#include "core/timeline_profile.hpp"

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
  const double factor = options.misbehave_factor;
  if ((!(factor > 1.0) || !std::isfinite(factor)) && !options.misbehaving.empty()) {
    throw std::invalid_argument{"replay: misbehave_factor must be finite and > 1"};
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

  // Senders offer their reservation (times misbehave_factor when
  // misbehaving), and the ports share the offers max-min; nothing expires.
  std::vector<baseline::FluidFlow> fluid;
  fluid.reserve(flows.size());
  for (const Flow& f : flows) {
    const Bandwidth offered =
        f.misbehaving ? f.assignment.bw * options.misbehave_factor : f.assignment.bw;
    fluid.push_back(baseline::FluidFlow{f.assignment.start, TimePoint::infinity(),
                                        f.request->ingress, f.request->egress,
                                        f.request->volume, offered});
  }
  const baseline::FluidRun run = baseline::run_fluid(network, fluid);

  ReplayReport report;
  report.transfers.resize(flows.size());
  for (std::size_t k = 0; k < flows.size(); ++k) {
    report.transfers[k].id = flows[k].request->id;
    report.transfers[k].promised_finish = flows[k].assignment.end(*flows[k].request);
    report.transfers[k].actual_finish = run.flows[k].finish;
    report.transfers[k].misbehaving = flows[k].misbehaving;
    report.transfers[k].dropped = Volume::zero();  // nothing polices, nothing drops
  }
  // Physically <= 1; reported for symmetry with replay_policed.
  report.peak_port_utilization = run.peak_port_load;
  return report;
}

}  // namespace gridbw::dataplane
