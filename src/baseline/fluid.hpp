// gridbw/baseline/fluid.hpp
//
// The library's one fluid event loop: transfers share the ports max-min
// fairly (heuristics::water_fill from guarantee 0, each flow capped by its
// max rate), and the rates are recomputed at every start, completion and
// deadline. Both uncontrolled executions the paper argues against run on
// it: max-min sharing with deadline kills (baseline::simulate_maxmin, §5.3)
// and a schedule replayed without enforcement (dataplane::replay_unpoliced,
// §5.4, where no flow has a deadline).

#pragma once

#include <span>
#include <vector>

#include "core/ids.hpp"
#include "core/network.hpp"
#include "util/quantity.hpp"

namespace gridbw::baseline {

/// A flow completes once at most this many bytes are left: the per-step
/// subtraction `remaining - rate * dt` leaves a rounding residue of a few
/// ulps of the volume (GB volumes: ~1e-7 B), far below a millibyte.
inline constexpr double kFluidDoneBytes = 1e-3;

/// A flow that has not completed is killed once the clock is within this of
/// its deadline: `now += dt` rounds, so a step that lands on the deadline
/// may read a few ulps of the clock (1e-12 s at 1e4 s) short of it.
inline constexpr double kFluidDeadlineSlack = 1e-9;

/// One transfer as the fluid sees it.
struct FluidFlow {
  TimePoint start;
  /// The kill instant; TimePoint::infinity() for a flow that never dies.
  TimePoint deadline;
  IngressId ingress;
  EgressId egress;
  Volume volume;
  Bandwidth max_rate;
};

struct FluidOutcome {
  bool completed{false};
  /// Completion instant, or the deadline at which the flow was killed.
  TimePoint finish;
  /// Bytes moved by `finish` (== volume when completed).
  Volume transferred;
};

struct FluidRun {
  /// Indexed like the input flows.
  std::vector<FluidOutcome> flows;
  /// Worst port load relative to its capacity at any event.
  double peak_port_load{0.0};
};

/// Runs the fluid to the end. `flows` must be ordered by start (throws
/// std::invalid_argument otherwise); flows that start at the same instant
/// keep their span order in every fill, so reruns are bit-identical.
[[nodiscard]] FluidRun run_fluid(const Network& network,
                                 std::span<const FluidFlow> flows);

}  // namespace gridbw::baseline
