// gridbw/heuristics/water_fill.hpp
//
// The execution-rate kernel of the malleable engines (heuristics/malleable):
// progressive filling above the guarantees. Every unfrozen flow's rate rises
// by the same increment per round until its MaxRate or one of its ports
// binds — max-min fairness over the residual port capacity.
//
// The fill keeps an active list of the unfrozen flows, compacted in place
// (order kept) as flows freeze, and per-port active counts decremented on
// each freeze, so a round costs O(active + ports). Its doubles are exactly
// those of the literal per-round recount kept as the test oracle
// (tests/support/water_fill_oracle.hpp): same freeze test, same increment,
// same order of every addition.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace gridbw::heuristics {

/// One live flow as the fill sees it: its ports and its rate bounds, bytes/s.
struct FillFlow {
  std::size_t ingress;
  std::size_t egress;
  double guarantee;
  double max;
};

/// Working state of water_fill, owned by the caller so a fill allocates only
/// when the flow or port count grows.
struct FillScratch {
  std::vector<std::size_t> active;
  std::vector<double> in_load;
  std::vector<double> out_load;
  std::vector<double> in_count;
  std::vector<double> out_count;
};

/// Writes each flow's max-min fair rate into `rates` (resized to
/// flows.size()), starting from the guarantees. `in_capacity`/`out_capacity`
/// are the port capacities in bytes/s; the flows are filled in span order,
/// so reruns are bit-identical.
void water_fill(std::span<const FillFlow> flows, std::span<const double> in_capacity,
                std::span<const double> out_capacity, std::vector<double>& rates,
                FillScratch& scratch);

}  // namespace gridbw::heuristics
