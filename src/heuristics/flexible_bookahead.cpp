#include "heuristics/flexible_bookahead.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/ledger.hpp"
#include "heuristics/online.hpp"

namespace gridbw::heuristics {

ScheduleResult schedule_flexible_bookahead(const Network& network,
                                           std::span<const Request> requests,
                                           const BookAheadOptions& options,
                                           obs::Observer* observer) {
  // Negated form so a NaN step fails the gate too.
  if (!options.step.is_positive() || !std::isfinite(options.step.to_seconds())) {
    throw std::invalid_argument{
        "schedule_flexible_bookahead: step must be positive and finite"};
  }

  ScheduleResult result;
  const std::vector<Request> order = fcfs_arrivals(requests, result, observer);
  if (order.empty()) return result;

  NetworkLedger ledger{network};
  ledger.attach_observer(observer);
  std::size_t next_arrival = 0;
  TimePoint interval_start = order.front().release;

  while (next_arrival < order.size()) {
    const TimePoint decision = interval_start + options.step;

    // Candidates of this interval, cheapest feasible placement first. We
    // sort by MinRate (small demands first) — a simple stand-in for the
    // WINDOW cost that keeps the per-candidate placement scan independent.
    std::vector<const Request*> candidates;
    while (next_arrival < order.size() && order[next_arrival].release < decision) {
      candidates.push_back(&order[next_arrival++]);
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Request* a, const Request* b) {
                if (a->min_rate() != b->min_rate()) return a->min_rate() < b->min_rate();
                return a->id < b->id;
              });

    for (const Request* rp : candidates) {
      const Request& r = *rp;
      bool placed = false;
      bool any_rate = false;  // some start in the horizon had a feasible rate
      for (std::size_t k = 0; k <= options.max_book_ahead && !placed; ++k) {
        const TimePoint start = decision + options.step * static_cast<double>(k);
        const auto bw = options.policy.assign(r, start);
        if (!bw.has_value()) break;  // later starts are only worse
        any_rate = true;
        const TimePoint end = r.finish_at(start, *bw);
        if (ledger.fits(r.ingress, r.egress, start, end, *bw)) {
          ledger.reserve(r.ingress, r.egress, start, end, *bw);
          result.schedule.accept(r.id, start, *bw);
          obs::note_accepted(observer, r.id, decision, start, *bw);
          placed = true;
        }
      }
      if (!placed) {
        result.rejected.push_back(r.id);
        obs::note_rejected(observer, r.id, decision,
                           any_rate ? obs::RejectReason::kNoFeasibleStart
                                    : obs::RejectReason::kInfeasibleRate);
      }
    }

    if (next_arrival < order.size()) {
      interval_start = gridbw::max(decision, order[next_arrival].release);
    }
  }
  return result;
}

}  // namespace gridbw::heuristics
