#include "heuristics/flexible_greedy.hpp"

#include <vector>

#include "core/ledger.hpp"
#include "heuristics/online.hpp"

namespace gridbw::heuristics {

ScheduleResult schedule_flexible_greedy(const Network& network,
                                        std::span<const Request> requests,
                                        BandwidthPolicy policy,
                                        obs::Observer* observer) {
  ScheduleResult result;
  const std::vector<Request> order = fcfs_arrivals(requests, result, observer);
  CounterLedger counters{network};
  Completions completions;

  for (const Request& r : order) {
    completions.reclaim_until(r.release, counters, observer);
    const auto bw = policy.assign(r, r.release);
    if (bw.has_value() && counters.fits(r.ingress, r.egress, *bw)) {
      counters.allocate(r.ingress, r.egress, *bw);
      result.schedule.accept(r.id, r.release, *bw);
      obs::note_accepted(observer, r.id, r.release, r.release, *bw);
      completions.push(r, r.release, *bw);
    } else {
      result.rejected.push_back(r.id);
      if (observer != nullptr) {
        const obs::RejectReason reason =
            bw.has_value() ? obs::classify_saturation(
                                 counters.fits_ingress(r.ingress, *bw),
                                 counters.fits_egress(r.egress, *bw))
                           : obs::RejectReason::kInfeasibleRate;
        obs::note_rejected(observer, r.id, r.release, reason);
      }
    }
  }

  // Close every accepted transfer's lifecycle in the trace.
  completions.reclaim_until(TimePoint::infinity(), counters, observer);
  return result;
}

}  // namespace gridbw::heuristics
