#include "baseline/maxmin.hpp"

#include <algorithm>
#include <vector>

#include "baseline/fluid.hpp"

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

MaxMinResult simulate_maxmin(const Network& network, std::span<const Request> requests) {
  std::vector<std::size_t> arrival_order(requests.size());
  for (std::size_t k = 0; k < requests.size(); ++k) arrival_order[k] = k;
  std::sort(arrival_order.begin(), arrival_order.end(), [&](std::size_t a, std::size_t b) {
    if (requests[a].release != requests[b].release) {
      return requests[a].release < requests[b].release;
    }
    return requests[a].id < requests[b].id;
  });

  std::vector<FluidFlow> flows;
  flows.reserve(requests.size());
  for (const std::size_t k : arrival_order) {
    const Request& r = requests[k];
    flows.push_back(
        FluidFlow{r.release, r.deadline, r.ingress, r.egress, r.volume, r.max_rate});
  }
  const FluidRun run = run_fluid(network, flows);

  MaxMinResult result;
  result.flows.resize(requests.size());
  for (std::size_t j = 0; j < arrival_order.size(); ++j) {
    const std::size_t k = arrival_order[j];
    const FluidOutcome& o = run.flows[j];
    result.flows[k] = FlowOutcome{requests[k].id, o.completed, o.finish, o.transferred};
  }
  return result;
}

}  // namespace gridbw::baseline
