// gridbw/baseline/maxmin.hpp
//
// The "Internet way" the paper argues against: no admission control — every
// transfer starts immediately and the network shares bandwidth max-min
// fairly among active flows (progressive filling, Bertsekas & Gallager),
// constrained by each flow's host MaxRate and its ingress/egress port
// capacities. This is a fluid-level stand-in for a population of well-tuned
// TCP flows: identical steady-state allocation, none of the packet dynamics
// (which the paper's session-level model abstracts away too).
//
// A flow that has not moved its full volume by its deadline *fails*: the
// bytes it transferred are wasted (the grid job misses its data), which is
// exactly the failure mode §5.3 describes for concurrent high-speed TCP
// flows in overloaded networks — large flows suffer and transfers die
// before ending.

#pragma once

#include <span>
#include <vector>

#include "core/network.hpp"
#include "core/request.hpp"

namespace gridbw::baseline {

/// Per-flow outcome of the fluid simulation.
struct FlowOutcome {
  RequestId id{0};
  bool completed{false};
  /// Completion instant (or the deadline at which the flow was killed).
  TimePoint finish;
  /// Bytes moved by `finish` (== volume when completed).
  Volume transferred;
};

struct MaxMinResult {
  std::vector<FlowOutcome> flows;

  [[nodiscard]] std::size_t completed_count() const;
  /// completed / total, the analogue of the accept rate (a transfer "fails"
  /// instead of being rejected up front).
  [[nodiscard]] double success_rate() const;
  /// Bytes transferred by flows that then missed their deadline — network
  /// work that bought nothing.
  [[nodiscard]] Volume wasted_bytes() const;
  /// Bytes delivered by completed flows.
  [[nodiscard]] Volume useful_bytes() const;
};

/// Runs the max-min fluid sharing simulation over the request set on
/// baseline::run_fluid: each flow starts at its release, is capped by its
/// MaxRate and dies at its deadline; arrivals at one instant enter by id.
[[nodiscard]] MaxMinResult simulate_maxmin(const Network& network,
                                           std::span<const Request> requests);

}  // namespace gridbw::baseline
