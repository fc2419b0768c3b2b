#include "heuristics/flexible_window.hpp"

#include <queue>
#include <vector>

#include "core/ledger.hpp"
#include "heuristics/window_select.hpp"

namespace gridbw::heuristics {
namespace {

struct Completion {
  TimePoint finish;
  RequestId request;
  IngressId ingress;
  EgressId egress;
  Bandwidth bw;
};

struct LaterFinish {
  bool operator()(const Completion& a, const Completion& b) const {
    return a.finish > b.finish;
  }
};

}  // namespace

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
  std::priority_queue<Completion, std::vector<Completion>, LaterFinish> completions;
  const auto reclaim_first = [&] {
    const Completion done = completions.top();
    completions.pop();
    counters.reclaim(done.ingress, done.egress, done.bw);
    obs::note_reclaimed(observer, done.request, done.finish, done.bw);
  };

  WindowSelector selector{options.order, options.hotspot_weight, observer};
  selector.run(
      arrivals, options.step, options.policy, counters, result,
      [&](TimePoint decision) {
        while (!completions.empty() && completions.top().finish <= decision) {
          reclaim_first();
        }
      },
      [&](const WindowCandidate& c, TimePoint decision) {
        const Request& r = *c.request;
        result.schedule.accept(r.id, decision, c.bw);
        completions.push(
            Completion{decision + r.volume / c.bw, r.id, r.ingress, r.egress, c.bw});
      });

  // Close every accepted transfer's lifecycle in the trace (observability
  // only; without an observer the ledger dies with the function).
  if (observer != nullptr) {
    while (!completions.empty()) reclaim_first();
  }
  return result;
}

}  // namespace gridbw::heuristics
