#include "support/water_fill_oracle.hpp"

#include <algorithm>
#include <limits>

namespace gridbw::oracle {

std::vector<double> water_fill(std::span<const heuristics::FillFlow> flows,
                               std::span<const double> in_capacity,
                               std::span<const double> out_capacity) {
  const std::size_t n = flows.size();
  std::vector<double> rates(n);
  std::vector<bool> frozen(n, false);
  std::vector<double> in_load(in_capacity.size(), 0.0);
  std::vector<double> out_load(out_capacity.size(), 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    rates[k] = flows[k].guarantee;
    in_load[flows[k].ingress] += flows[k].guarantee;
    out_load[flows[k].egress] += flows[k].guarantee;
  }
  std::vector<double> in_count(in_load.size());
  std::vector<double> out_count(out_load.size());
  constexpr double kEps = 1e-6;
  for (std::size_t round = 0; round < 2 * n + 2; ++round) {
    std::fill(in_count.begin(), in_count.end(), 0.0);
    std::fill(out_count.begin(), out_count.end(), 0.0);
    double inc = std::numeric_limits<double>::infinity();
    std::size_t active = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (frozen[k]) continue;
      const heuristics::FillFlow& f = flows[k];
      const double head_in = in_capacity[f.ingress] - in_load[f.ingress];
      const double head_out = out_capacity[f.egress] - out_load[f.egress];
      if (rates[k] >= f.max - kEps || head_in <= kEps || head_out <= kEps) {
        frozen[k] = true;
        continue;
      }
      ++active;
      in_count[f.ingress] += 1.0;
      out_count[f.egress] += 1.0;
      inc = std::min(inc, f.max - rates[k]);
    }
    if (active == 0) break;
    for (std::size_t p = 0; p < in_load.size(); ++p) {
      if (in_count[p] > 0.0) {
        inc = std::min(inc, (in_capacity[p] - in_load[p]) / in_count[p]);
      }
    }
    for (std::size_t p = 0; p < out_load.size(); ++p) {
      if (out_count[p] > 0.0) {
        inc = std::min(inc, (out_capacity[p] - out_load[p]) / out_count[p]);
      }
    }
    if (!(inc > 0.0)) break;
    for (std::size_t k = 0; k < n; ++k) {
      if (frozen[k]) continue;
      rates[k] += inc;
      in_load[flows[k].ingress] += inc;
      out_load[flows[k].egress] += inc;
    }
  }
  return rates;
}

}  // namespace gridbw::oracle
