// tests/support/window_scan.hpp
//
// The paper-literal WINDOW heuristic (§5.2, Algorithm 3), kept as the test
// oracle for the heap drain of heuristics/window_select.hpp that
// schedule_flexible_window and schedule_malleable_window share. The scan
// re-evaluates every remaining candidate per pick (O(C²) per interval) and
// needs no argument about costs growing during a drain to be exact.

#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/ledger.hpp"
#include "core/network.hpp"
#include "core/request.hpp"
#include "core/schedule.hpp"
#include "heuristics/flexible_window.hpp"
#include "heuristics/window_select.hpp"
#include "obs/observer.hpp"

namespace gridbw::oracle {

/// The literal selection loop with WindowSelector::drain's contract: while
/// candidates remain, compute every remaining selection cost, take the
/// smallest request id among those within approx_le of the minimum, and
/// pass it through heuristics::admit_or_reject; admitted ones go to
/// `on_admit`.
void scan_drain(std::vector<heuristics::WindowCandidate> batch,
                heuristics::CandidateOrder order, double hotspot_weight,
                TimePoint decision, CounterLedger& counters, ScheduleResult& result,
                obs::Observer* observer,
                const std::function<void(const heuristics::WindowCandidate&)>& on_admit);

/// Algorithm 3's interval loop over scan_drain. It follows
/// schedule_flexible_window's interval tiling, rejection reasons and event
/// narration, so the two must agree byte for byte, traces included.
[[nodiscard]] ScheduleResult schedule_window_by_scan(const Network& network,
                                                     std::span<const Request> requests,
                                                     const heuristics::WindowOptions& options,
                                                     obs::Observer* observer = nullptr);

}  // namespace gridbw::oracle
