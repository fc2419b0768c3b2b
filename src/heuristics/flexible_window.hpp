// gridbw/heuristics/flexible_window.hpp
//
// Interval-based WINDOW heuristic for flexible requests (§5.2,
// Algorithm 3). Time is divided into intervals of fixed length t_step.
// Requests arriving during an interval are batched; at the interval's end
// the scheduler (1) reclaims bandwidth of transfers that finished, then
// (2) repeatedly admits the candidate of minimum cost
//
//     cost(r) = max( (ali(i) + bw(r)) / B_in(i),
//                    (ale(e) + bw(r)) / B_out(e) )
//
// while that minimum stays <= 1; the remaining candidates are rejected.
// Admitted transfers start at the decision instant, so their feasible
// minimum rate is vol / (t_f - decision_time). The interval loop and its
// selection drain live in heuristics/window_select.hpp, shared with the
// malleable WINDOW; tests/support holds the literal scan they are tested
// against.
//
// The optional hot-spot-aware cost (paper §7 future work: "relieving
// tentative hot spots") adds a penalty proportional to the ports' standing
// utilization, steering load away from busy access points.

#pragma once

#include <span>
#include <string>

#include "core/network.hpp"
#include "core/request.hpp"
#include "core/schedule.hpp"
#include "heuristics/bandwidth_policy.hpp"
#include "obs/observer.hpp"

namespace gridbw::heuristics {

/// Which candidate the per-interval loop admits next. kMinCost is the
/// paper's rule; the alternatives are classic scheduling orders used as
/// ablation baselines (see bench/order_ablation).
enum class CandidateOrder {
  kMinCost,           // paper: smallest max-port-utilization first
  kEarliestDeadline,  // EDF: most urgent first
  kShortestJob,       // SJF: shortest transfer time first
};

[[nodiscard]] std::string to_string(CandidateOrder order);

struct WindowOptions {
  /// Interval length t_step. Longer intervals batch more candidates and
  /// schedule better, at the price of request response latency (§5.2).
  Duration step{Duration::seconds(400)};

  BandwidthPolicy policy{BandwidthPolicy::min_rate()};

  /// 0 disables; > 0 adds hotspot_weight * mean standing utilization of the
  /// request's two ports to its cost (kMinCost order only).
  double hotspot_weight{0.0};

  CandidateOrder order{CandidateOrder::kMinCost};
};

[[nodiscard]] ScheduleResult schedule_flexible_window(const Network& network,
                                                      std::span<const Request> requests,
                                                      const WindowOptions& options,
                                                      obs::Observer* observer = nullptr);

}  // namespace gridbw::heuristics
