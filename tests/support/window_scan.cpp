#include "support/window_scan.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <queue>

namespace gridbw::oracle {

using heuristics::WindowCandidate;

void scan_drain(std::vector<WindowCandidate> batch, heuristics::CandidateOrder order,
                double hotspot_weight, TimePoint decision, CounterLedger& counters,
                ScheduleResult& result, obs::Observer* observer,
                const std::function<void(const WindowCandidate&)>& on_admit) {
  std::vector<double> costs;
  while (!batch.empty()) {
    costs.resize(batch.size());
    double min_cost = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < batch.size(); ++k) {
      costs[k] = heuristics::selection_cost(counters, batch[k], order, hotspot_weight);
      min_cost = std::min(min_cost, costs[k]);
    }
    std::size_t best = batch.size();
    for (std::size_t k = 0; k < batch.size(); ++k) {
      if (!approx_le(costs[k], min_cost)) continue;  // outside the tie band
      if (best == batch.size() || batch[k].request->id < batch[best].request->id) {
        best = k;
      }
    }
    const WindowCandidate chosen = batch[best];
    batch.erase(batch.begin() + static_cast<std::ptrdiff_t>(best));
    if (heuristics::admit_or_reject(chosen, decision, counters, result, observer)) {
      on_admit(chosen);
    }
  }
}

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

ScheduleResult schedule_window_by_scan(const Network& network,
                                       std::span<const Request> requests,
                                       const heuristics::WindowOptions& options,
                                       obs::Observer* observer) {
  ScheduleResult result;
  std::vector<Request> arrivals;
  for (const Request& r : requests) {
    obs::note_submitted(observer, r.id, r.release);
    if (!(r.deadline > r.release)) {
      result.rejected.push_back(r.id);
      obs::note_rejected(observer, r.id, r.release, obs::RejectReason::kDegenerateWindow);
      continue;
    }
    arrivals.push_back(r);
  }
  sort_fcfs(arrivals);

  CounterLedger counters{network};
  std::priority_queue<Completion, std::vector<Completion>, LaterFinish> completions;
  const auto reclaim_first = [&] {
    const Completion done = completions.top();
    completions.pop();
    counters.reclaim(done.ingress, done.egress, done.bw);
    obs::note_reclaimed(observer, done.request, done.finish, done.bw);
  };

  std::size_t next = 0;
  while (next < arrivals.size()) {
    // The interval opens at the first pending arrival (idle gaps are
    // skipped, as in schedule_flexible_window) and closes t_step later.
    const TimePoint decision = arrivals[next].release + options.step;
    std::vector<WindowCandidate> batch;
    while (next < arrivals.size() && arrivals[next].release < decision) {
      const Request& r = arrivals[next++];
      if (const auto bw = options.policy.assign(r, decision)) {
        batch.push_back(WindowCandidate{&r, *bw});
      } else {
        result.rejected.push_back(r.id);
        obs::note_rejected(observer, r.id, decision, obs::RejectReason::kInfeasibleRate);
      }
    }
    while (!completions.empty() && completions.top().finish <= decision) reclaim_first();
    scan_drain(std::move(batch), options.order, options.hotspot_weight, decision, counters,
               result, observer, [&](const WindowCandidate& c) {
                 const Request& r = *c.request;
                 result.schedule.accept(r.id, decision, c.bw);
                 completions.push(Completion{decision + r.volume / c.bw, r.id, r.ingress,
                                             r.egress, c.bw});
               });
  }
  // Close every accepted transfer's lifecycle in the trace.
  if (observer != nullptr) {
    while (!completions.empty()) reclaim_first();
  }
  return result;
}

}  // namespace gridbw::oracle
