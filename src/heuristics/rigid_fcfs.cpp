#include "heuristics/rigid_fcfs.hpp"

#include <vector>

#include "core/ledger.hpp"
#include "heuristics/online.hpp"

namespace gridbw::heuristics {

ScheduleResult schedule_rigid_fcfs(const Network& network,
                                   std::span<const Request> requests,
                                   obs::Observer* observer) {
  ScheduleResult result;
  const std::vector<Request> order = fcfs_arrivals(requests, result, observer);

  NetworkLedger ledger{network};
  ledger.attach_observer(observer);
  for (const Request& r : order) {
    const Bandwidth bw = r.min_rate();  // rigid: the one admissible rate
    if (approx_le(bw, r.max_rate) &&
        ledger.fits(r.ingress, r.egress, r.release, r.deadline, bw)) {
      ledger.reserve(r.ingress, r.egress, r.release, r.deadline, bw);
      result.schedule.accept(r.id, r.release, bw);
      obs::note_accepted(observer, r.id, r.release, r.release, bw);
    } else {
      result.rejected.push_back(r.id);
      if (observer != nullptr) {
        obs::RejectReason reason = obs::RejectReason::kInfeasibleRate;
        if (approx_le(bw, r.max_rate)) {
          reason = obs::classify_saturation(
              ledger.fits_ingress(r.ingress, r.release, r.deadline, bw),
              ledger.fits_egress(r.egress, r.release, r.deadline, bw));
        }
        obs::note_rejected(observer, r.id, r.release, reason);
      }
    }
  }
  return result;
}

}  // namespace gridbw::heuristics
