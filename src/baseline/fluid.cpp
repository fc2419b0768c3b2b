#include "baseline/fluid.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "heuristics/water_fill.hpp"

namespace gridbw::baseline {
namespace {

struct LiveFlow {
  std::size_t index;  // into the input span / outcome vector
  double remaining_bytes;
};

}  // namespace

FluidRun run_fluid(const Network& network, std::span<const FluidFlow> flows) {
  const auto by_start = [](const FluidFlow& a, const FluidFlow& b) {
    return a.start < b.start;
  };
  if (!std::is_sorted(flows.begin(), flows.end(), by_start)) {
    throw std::invalid_argument{"run_fluid: flows must be ordered by start"};
  }

  FluidRun run;
  run.flows.resize(flows.size());
  const std::vector<double> in_capacity =
      heuristics::to_bytes_per_second(network.ingress_capacities());
  const std::vector<double> out_capacity =
      heuristics::to_bytes_per_second(network.egress_capacities());
  std::vector<heuristics::FillFlow> fill;
  std::vector<double> rates;
  heuristics::FillScratch scratch;
  std::vector<double> in_load;
  std::vector<double> out_load;

  std::vector<LiveFlow> live;
  std::size_t next_start = 0;
  TimePoint now = flows.empty() ? TimePoint::origin() : flows.front().start;

  while (next_start < flows.size() || !live.empty()) {
    if (live.empty()) now = flows[next_start].start;
    for (; next_start < flows.size() && flows[next_start].start <= now; ++next_start) {
      live.push_back(LiveFlow{next_start, flows[next_start].volume.to_bytes()});
    }

    fill.clear();
    for (const LiveFlow& f : live) {
      const FluidFlow& flow = flows[f.index];
      fill.push_back({flow.ingress.value, flow.egress.value, 0.0,
                      flow.max_rate.to_bytes_per_second()});
    }
    heuristics::water_fill(fill, in_capacity, out_capacity, rates, scratch);

    in_load.assign(in_capacity.size(), 0.0);
    out_load.assign(out_capacity.size(), 0.0);
    for (std::size_t f = 0; f < live.size(); ++f) {
      in_load[fill[f].ingress] += rates[f];
      out_load[fill[f].egress] += rates[f];
    }
    for (std::size_t i = 0; i < in_load.size(); ++i) {
      run.peak_port_load = std::max(run.peak_port_load, in_load[i] / in_capacity[i]);
    }
    for (std::size_t e = 0; e < out_load.size(); ++e) {
      run.peak_port_load = std::max(run.peak_port_load, out_load[e] / out_capacity[e]);
    }

    // Next event: a start, the earliest completion, or the earliest deadline.
    double dt = std::numeric_limits<double>::infinity();
    if (next_start < flows.size()) {
      dt = flows[next_start].start.to_seconds() - now.to_seconds();
    }
    for (std::size_t f = 0; f < live.size(); ++f) {
      if (rates[f] > 0.0) dt = std::min(dt, live[f].remaining_bytes / rates[f]);
      dt = std::min(dt, flows[live[f].index].deadline.to_seconds() - now.to_seconds());
    }
    dt = std::max(dt, 0.0);

    now += Duration::seconds(dt);
    for (std::size_t f = 0; f < live.size(); ++f) {
      const double moved = rates[f] * dt;
      live[f].remaining_bytes = std::max(0.0, live[f].remaining_bytes - moved);
      run.flows[live[f].index].transferred += Volume::bytes(moved);
    }

    std::erase_if(live, [&](const LiveFlow& f) {
      const FluidFlow& flow = flows[f.index];
      FluidOutcome& outcome = run.flows[f.index];
      if (f.remaining_bytes <= kFluidDoneBytes) {
        outcome = FluidOutcome{true, now, flow.volume};
        return true;
      }
      if (now.to_seconds() >= flow.deadline.to_seconds() - kFluidDeadlineSlack) {
        outcome.finish = flow.deadline;
        return true;
      }
      return false;
    });
  }
  return run;
}

}  // namespace gridbw::baseline
