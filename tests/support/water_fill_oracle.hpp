// tests/support/water_fill_oracle.hpp
//
// The literal progressive fill the malleable engines ran before
// heuristics::water_fill kept an active list: every round re-walks every
// flow, re-tests the frozen ones' flags, and recounts the per-port active
// flows from zero. Kept as the test oracle the compact fill must match bit
// for bit (tests/water_fill_test.cpp).

#pragma once

#include <span>
#include <vector>

#include "heuristics/water_fill.hpp"

namespace gridbw::oracle {

/// The max-min fair rate of each flow, in span order, with
/// heuristics::water_fill's contract.
[[nodiscard]] std::vector<double> water_fill(std::span<const heuristics::FillFlow> flows,
                                             std::span<const double> in_capacity,
                                             std::span<const double> out_capacity);

}  // namespace gridbw::oracle
