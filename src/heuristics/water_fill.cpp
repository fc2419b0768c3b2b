#include "heuristics/water_fill.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace gridbw::heuristics {

std::vector<double> to_bytes_per_second(std::span<const Bandwidth> capacities) {
  std::vector<double> bps;
  bps.reserve(capacities.size());
  for (const Bandwidth c : capacities) bps.push_back(c.to_bytes_per_second());
  return bps;
}

// gridbw:hot
void water_fill(std::span<const FillFlow> flows, std::span<const double> in_capacity,
                std::span<const double> out_capacity, std::vector<double>& rates,
                FillScratch& scratch) {
  const std::size_t n = flows.size();
  std::vector<std::size_t>& active = scratch.active;
  std::vector<double>& in_load = scratch.in_load;
  std::vector<double>& out_load = scratch.out_load;
  std::vector<double>& in_count = scratch.in_count;
  std::vector<double>& out_count = scratch.out_count;
  rates.resize(n);
  active.clear();
  in_load.assign(in_capacity.size(), 0.0);
  out_load.assign(out_capacity.size(), 0.0);
  in_count.assign(in_capacity.size(), 0.0);
  out_count.assign(out_capacity.size(), 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    const FillFlow& f = flows[k];
    rates[k] = f.guarantee;
    in_load[f.ingress] += f.guarantee;
    out_load[f.egress] += f.guarantee;
    in_count[f.ingress] += 1.0;
    out_count[f.egress] += 1.0;
    active.push_back(k);
  }
  // Every round after the first freezes a flow (kFillTol's bound), so the
  // loop's bound is never reached.
  for (std::size_t round = 0; round <= n; ++round) {
    // Freeze every flow at its MaxRate or on a saturated port; the
    // survivors stay in admission order and bound the increment.
    double inc = std::numeric_limits<double>::infinity();
    std::size_t kept = 0;
    for (const std::size_t k : active) {
      const FillFlow& f = flows[k];
      if (rates[k] >= f.max * (1.0 - kFillTol) ||
          in_load[f.ingress] >= in_capacity[f.ingress] * (1.0 - kFillTol) ||
          out_load[f.egress] >= out_capacity[f.egress] * (1.0 - kFillTol)) {
        in_count[f.ingress] -= 1.0;
        out_count[f.egress] -= 1.0;
        continue;
      }
      inc = std::min(inc, f.max - rates[k]);
      active[kept++] = k;
    }
    active.resize(kept);
    if (kept == 0) return;
    for (std::size_t p = 0; p < in_load.size(); ++p) {
      if (in_count[p] > 0.0) inc = std::min(inc, (in_capacity[p] - in_load[p]) / in_count[p]);
    }
    for (std::size_t p = 0; p < out_load.size(); ++p) {
      if (out_count[p] > 0.0) {
        inc = std::min(inc, (out_capacity[p] - out_load[p]) / out_count[p]);
      }
    }
    assert(inc > 0.0 && "every active flow has headroom above kFillTol");
    for (const std::size_t k : active) {
      rates[k] += inc;
      in_load[flows[k].ingress] += inc;
      out_load[flows[k].egress] += inc;
    }
  }
  assert(false && "a water_fill round froze no flow");
}

}  // namespace gridbw::heuristics
