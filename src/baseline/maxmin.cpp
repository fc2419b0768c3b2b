#include "baseline/maxmin.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "heuristics/water_fill.hpp"

namespace gridbw::baseline {

std::size_t MaxMinResult::completed_count() const {
  std::size_t count = 0;
  for (const FlowOutcome& f : flows) count += f.completed ? 1 : 0;
  return count;
}

double MaxMinResult::success_rate() const {
  if (flows.empty()) return 0.0;
  return static_cast<double>(completed_count()) / static_cast<double>(flows.size());
}

Volume MaxMinResult::wasted_bytes() const {
  Volume total = Volume::zero();
  for (const FlowOutcome& f : flows) {
    if (!f.completed) total += f.transferred;
  }
  return total;
}

Volume MaxMinResult::useful_bytes() const {
  Volume total = Volume::zero();
  for (const FlowOutcome& f : flows) {
    if (f.completed) total += f.transferred;
  }
  return total;
}

namespace {

struct LiveFlow {
  std::size_t index;  // into the original request span / result vector
  heuristics::FillFlow fill;
  TimePoint deadline;
  double remaining_bytes;
};

}  // namespace

MaxMinResult simulate_maxmin(const Network& network, std::span<const Request> requests) {
  std::vector<std::size_t> arrival_order(requests.size());
  for (std::size_t k = 0; k < requests.size(); ++k) arrival_order[k] = k;
  std::sort(arrival_order.begin(), arrival_order.end(), [&](std::size_t a, std::size_t b) {
    if (requests[a].release != requests[b].release) {
      return requests[a].release < requests[b].release;
    }
    return requests[a].id < requests[b].id;
  });

  MaxMinResult result;
  result.flows.resize(requests.size());
  for (std::size_t k = 0; k < requests.size(); ++k) {
    result.flows[k] = FlowOutcome{requests[k].id, false, requests[k].deadline,
                                  Volume::zero()};
  }

  const std::vector<double> in_capacity =
      heuristics::to_bytes_per_second(network.ingress_capacities());
  const std::vector<double> out_capacity =
      heuristics::to_bytes_per_second(network.egress_capacities());
  std::vector<heuristics::FillFlow> fill;
  std::vector<double> rates;
  heuristics::FillScratch scratch;

  std::vector<LiveFlow> live;
  std::size_t next_arrival = 0;
  TimePoint now = requests.empty() ? TimePoint::origin()
                                   : requests[arrival_order[0]].release;

  while (next_arrival < arrival_order.size() || !live.empty()) {
    if (live.empty()) {
      now = requests[arrival_order[next_arrival]].release;
    }
    // Admit arrivals at the current instant.
    while (next_arrival < arrival_order.size() &&
           requests[arrival_order[next_arrival]].release <= now) {
      const std::size_t k = arrival_order[next_arrival++];
      const Request& r = requests[k];
      live.push_back(LiveFlow{k,
                              {r.ingress.value, r.egress.value, 0.0,
                               r.max_rate.to_bytes_per_second()},
                              r.deadline, r.volume.to_bytes()});
    }

    // Current max-min rates.
    fill.clear();
    for (const LiveFlow& f : live) fill.push_back(f.fill);
    heuristics::water_fill(fill, in_capacity, out_capacity, rates, scratch);

    // Next event: arrival, earliest completion, or earliest deadline.
    double dt = std::numeric_limits<double>::infinity();
    if (next_arrival < arrival_order.size()) {
      dt = requests[arrival_order[next_arrival]].release.to_seconds() - now.to_seconds();
    }
    for (std::size_t f = 0; f < live.size(); ++f) {
      if (rates[f] > 0.0) dt = std::min(dt, live[f].remaining_bytes / rates[f]);
      dt = std::min(dt, live[f].deadline.to_seconds() - now.to_seconds());
    }
    dt = std::max(dt, 0.0);

    // Advance the fluid by dt.
    now += Duration::seconds(dt);
    for (std::size_t f = 0; f < live.size(); ++f) {
      const double moved = rates[f] * dt;
      live[f].remaining_bytes = std::max(0.0, live[f].remaining_bytes - moved);
      result.flows[live[f].index].transferred += Volume::bytes(moved);
    }

    // Retire completed and expired flows.
    std::erase_if(live, [&](const LiveFlow& f) {
      if (f.remaining_bytes <= 1e-3) {  // < a millibyte of fluid left
        result.flows[f.index].completed = true;
        result.flows[f.index].finish = now;
        result.flows[f.index].transferred = requests[f.index].volume;
        return true;
      }
      if (now.to_seconds() >= f.deadline.to_seconds() - 1e-9) {
        result.flows[f.index].completed = false;
        result.flows[f.index].finish = f.deadline;
        return true;
      }
      return false;
    });
  }
  return result;
}

}  // namespace gridbw::baseline
