// gridbw/heuristics/water_fill.hpp
//
// The library's one max-min fill (progressive filling, Bertsekas &
// Gallager), above per-flow guarantees. Every unfrozen flow's rate rises by
// the same increment per round until its MaxRate or one of its ports binds.
// The malleable engines (heuristics/malleable) fill above their admitted
// guarantees; the fluid loop (baseline/fluid), which runs the max-min
// baseline and the unpoliced replay, fills from guarantee 0.
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

#include "util/quantity.hpp"

namespace gridbw::heuristics {

/// The fill's one tolerance, relative: a flow freezes when
/// `load >= (1 - kFillTol) * capacity` on either of its ports (headroom
/// within kFillTol of the capacity), or when `rate >= (1 - kFillTol) * max`.
/// Scaling every rate and capacity by 2^k scales every comparison exactly,
/// so the fill decides alike at every scale.
///
/// The bound it rests on: a round's increment saturates its binding port
/// after `count` additions to that port's load, each off by at most half an
/// ulp (2^-53 relative), plus one rounding each in the headroom and the
/// division, so the port reads within (count + 2) * 2^-53 * capacity of
/// full; an increment bound by a flow's max brings that flow within two
/// roundings of it. 1e-12 covers that up to ~9,000 active flows on one port
/// (the paper platform carries ~50), so every round after the first freezes
/// a flow and a fill of n flows ends within n + 1 rounds.
inline constexpr double kFillTol = 1e-12;

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

/// Port capacities in the fill's unit, bytes/s, e.g. of
/// `network.ingress_capacities()`.
[[nodiscard]] std::vector<double> to_bytes_per_second(std::span<const Bandwidth> capacities);

/// Writes each flow's max-min fair rate into `rates` (resized to
/// flows.size()), starting from the guarantees. `in_capacity`/`out_capacity`
/// are the port capacities in bytes/s; the flows are filled in span order,
/// so reruns are bit-identical.
void water_fill(std::span<const FillFlow> flows, std::span<const double> in_capacity,
                std::span<const double> out_capacity, std::vector<double>& rates,
                FillScratch& scratch);

}  // namespace gridbw::heuristics
