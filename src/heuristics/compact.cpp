#include "heuristics/compact.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "core/ledger.hpp"

namespace gridbw::heuristics {

CompactResult compact_schedule(const Network& network,
                               std::span<const Request> requests,
                               const Schedule& schedule,
                               const CompactOptions& options) {
  if (!options.grid.is_positive()) {
    throw std::invalid_argument{"compact_schedule: grid must be positive"};
  }
  std::unordered_map<RequestId, const Request*> by_id;
  for (const Request& r : requests) by_id.emplace(r.id, &r);

  // Earliest-start-first: a request can only be pulled into gaps left of
  // it, so processing in start order lets earlier pulls open room for
  // later ones.
  std::vector<Assignment> order{schedule.assignments().begin(),
                                schedule.assignments().end()};
  std::sort(order.begin(), order.end(), [](const Assignment& a, const Assignment& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.request < b.request;
  });

  CompactResult out;
  NetworkLedger ledger{network};
  for (const Assignment& a : order) {
    const auto it = by_id.find(a.request);
    if (it == by_id.end()) {
      throw std::invalid_argument{"compact_schedule: unknown request " +
                                  std::to_string(a.request)};
    }
    const Request& r = *it->second;

    TimePoint chosen = a.start;
    // Probe from the release forward on the grid; stop at the original
    // start (never move later).
    for (TimePoint candidate = r.release; candidate < a.start;
         candidate += options.grid) {
      if (ledger.fits(r.ingress, r.egress, candidate, r.finish_at(candidate, a.bw),
                      a.bw)) {
        chosen = candidate;
        break;
      }
    }

    ledger.reserve(r.ingress, r.egress, chosen, r.finish_at(chosen, a.bw), a.bw);
    out.schedule.accept(r.id, chosen, a.bw);
    if (chosen < a.start) {
      ++out.moved;
      out.total_advance += a.start - chosen;
    }
  }
  return out;
}

}  // namespace gridbw::heuristics
