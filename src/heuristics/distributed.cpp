#include "heuristics/distributed.hpp"

#include <vector>

#include "core/ledger.hpp"
#include "heuristics/online.hpp"

namespace gridbw::heuristics {

DistributedResult schedule_flexible_distributed(const Network& network,
                                                std::span<const Request> requests,
                                                const DistributedOptions& options) {
  if (options.sync_period.is_negative()) {
    throw std::invalid_argument{"schedule_flexible_distributed: negative sync period"};
  }
  DistributedResult out;
  const std::vector<Request> order = fcfs_arrivals(requests, out.result, nullptr);
  CounterLedger truth{network};  // ground-truth counters (ingress exact + egress exact)
  Completions completions;

  // Stale egress view shared by all ingress routers, refreshed every
  // sync_period from the ground truth.
  std::vector<Bandwidth> egress_view(network.egress_count(), Bandwidth::zero());
  TimePoint last_sync = TimePoint::origin() - Duration::seconds(1);

  auto refresh_view = [&](TimePoint now) {
    if (options.sync_period == Duration::zero() ||
        now - last_sync >= options.sync_period) {
      for (std::size_t e = 0; e < egress_view.size(); ++e) {
        egress_view[e] = truth.allocated_egress(EgressId{e});
      }
      last_sync = now;
    }
  };

  for (const Request& r : order) {
    completions.reclaim_until(r.release, truth, nullptr);
    refresh_view(r.release);

    const auto bw = options.policy.assign(r, r.release);
    if (!bw.has_value()) {
      out.result.rejected.push_back(r.id);
      continue;
    }

    // Ingress-local decision: exact own counter, stale egress view.
    const bool ingress_ok =
        approx_le(truth.allocated_ingress(r.ingress) + *bw,
                  network.ingress_capacity(r.ingress));
    const bool egress_view_ok = approx_le(egress_view[r.egress.value] + *bw,
                                          network.egress_capacity(r.egress));
    if (!ingress_ok || !egress_view_ok) {
      out.result.rejected.push_back(r.id);
      continue;
    }

    // The data plane enforces the true egress capacity: an optimistic
    // admission that would overflow it is NACKed.
    const bool egress_truth_ok = approx_le(truth.allocated_egress(r.egress) + *bw,
                                           network.egress_capacity(r.egress));
    if (!egress_truth_ok) {
      ++out.egress_conflicts;
      out.result.rejected.push_back(r.id);
      continue;
    }

    truth.allocate(r.ingress, r.egress, *bw);
    out.result.schedule.accept(r.id, r.release, *bw);
    completions.push(r, r.release, *bw);
  }
  return out;
}

}  // namespace gridbw::heuristics
