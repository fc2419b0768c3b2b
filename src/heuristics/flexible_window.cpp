#include "heuristics/flexible_window.hpp"

#include <vector>

#include "core/ledger.hpp"
#include "heuristics/online.hpp"
#include "heuristics/window_select.hpp"

namespace gridbw::heuristics {

std::string to_string(CandidateOrder order) {
  switch (order) {
    case CandidateOrder::kMinCost: return "mincost";
    case CandidateOrder::kEarliestDeadline: return "edf";
    case CandidateOrder::kShortestJob: return "sjf";
  }
  return "unknown";
}

ScheduleResult schedule_flexible_window(const Network& network,
                                        std::span<const Request> requests,
                                        const WindowOptions& options,
                                        obs::Observer* observer) {
  ScheduleResult result;
  const std::vector<Request> arrivals =
      window_arrivals(requests, options.step, options.hotspot_weight, result, observer);
  CounterLedger counters{network};
  Completions completions;
  WindowSelector selector{options.order, options.hotspot_weight, observer};
  selector.run(
      arrivals, options.step, options.policy, counters, result,
      [&](TimePoint decision) {
        completions.reclaim_until(decision, counters, observer);
      },
      [&](const WindowCandidate& c, TimePoint decision) {
        result.schedule.accept(c.request->id, decision, c.bw);
        completions.push(*c.request, decision, c.bw);
      });

  // Close every accepted transfer's lifecycle in the trace.
  completions.reclaim_until(TimePoint::infinity(), counters, observer);
  return result;
}

}  // namespace gridbw::heuristics
