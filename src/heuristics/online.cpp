#include "heuristics/online.hpp"

namespace gridbw::heuristics {

std::vector<Request> fcfs_arrivals(std::span<const Request> requests,
                                   ScheduleResult& result, obs::Observer* observer) {
  std::vector<Request> arrivals;
  arrivals.reserve(requests.size());
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
  return arrivals;
}

void Completions::reclaim_until(TimePoint t, CounterLedger& counters,
                                obs::Observer* observer) {
  while (!heap_.empty() && heap_.top().finish <= t) {
    const Completion done = heap_.top();
    heap_.pop();
    counters.reclaim(done.ingress, done.egress, done.bw);
    obs::note_reclaimed(observer, done.request, done.finish, done.bw);
  }
}

}  // namespace gridbw::heuristics
