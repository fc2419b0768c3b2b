#include "exact/bnb.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/ledger.hpp"

namespace gridbw::exact {
namespace {

/// Shared DFS driver: each request has a list of candidate (start, bw)
/// placements; branch over "reject" plus every feasible placement.
struct Placement {
  TimePoint start;
  Bandwidth bw;
};

struct SearchState {
  const Network* network;
  const std::vector<Request>* requests;
  const std::vector<std::vector<Placement>>* placements;
  std::size_t max_nodes;

  NetworkLedger ledger;
  std::vector<std::optional<Placement>> chosen;
  std::size_t accepted{0};

  std::size_t best_accepted{0};
  std::vector<std::optional<Placement>> best_chosen;
  std::size_t nodes{0};
  bool budget_exhausted{false};

  explicit SearchState(const Network& net) : network{&net}, ledger{net} {}

  void record_if_best() {
    if (accepted > best_accepted) {
      best_accepted = accepted;
      best_chosen = chosen;
    }
  }

  void dfs(std::size_t k) {
    if (budget_exhausted) return;
    if (++nodes > max_nodes) {
      budget_exhausted = true;
      return;
    }
    const std::size_t total = requests->size();
    if (k == total) {
      record_if_best();
      return;
    }
    // Bound: even accepting everything left cannot beat the incumbent.
    if (accepted + (total - k) <= best_accepted) return;

    const Request& r = (*requests)[k];

    // Branch 1..m: accept at each feasible placement (try acceptance first —
    // deeper accepted counts tighten the bound sooner).
    for (const Placement& p : (*placements)[k]) {
      const TimePoint end = r.finish_at(p.start, p.bw);
      if (!ledger.fits(r.ingress, r.egress, p.start, end, p.bw)) continue;
      ledger.reserve(r.ingress, r.egress, p.start, end, p.bw);
      chosen[k] = p;
      ++accepted;
      dfs(k + 1);
      --accepted;
      chosen[k] = std::nullopt;
      ledger.release(r.ingress, r.egress, p.start, end, p.bw);
      if (budget_exhausted) return;
    }

    // Branch 0: reject.
    dfs(k + 1);
  }
};

ExactResult run_search(const Network& network, std::vector<Request> requests,
                       std::vector<std::vector<Placement>> placements,
                       const ExactOptions& options) {
  SearchState state{network};
  state.requests = &requests;
  state.placements = &placements;
  state.max_nodes = options.max_nodes;
  state.chosen.assign(requests.size(), std::nullopt);
  state.best_chosen.assign(requests.size(), std::nullopt);

  state.dfs(0);
  state.record_if_best();

  ExactResult out;
  out.proven_optimal = !state.budget_exhausted;
  out.nodes_expanded = state.nodes;
  for (std::size_t k = 0; k < requests.size(); ++k) {
    if (state.best_chosen[k].has_value()) {
      out.result.schedule.accept(requests[k].id, state.best_chosen[k]->start,
                                 state.best_chosen[k]->bw);
    } else {
      out.result.rejected.push_back(requests[k].id);
    }
  }
  return out;
}

}  // namespace

ExactResult solve_rigid_optimal(const Network& network,
                                std::span<const Request> requests,
                                ExactOptions options) {
  std::vector<Request> order{requests.begin(), requests.end()};
  // Heuristic ordering: tight (high-rate) requests first makes conflicts
  // surface near the root, improving pruning.
  std::sort(order.begin(), order.end(), [](const Request& a, const Request& b) {
    if (a.min_rate() != b.min_rate()) return a.min_rate() > b.min_rate();
    return a.id < b.id;
  });
  std::vector<std::vector<Placement>> placements(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const Request& r = order[k];
    if (approx_le(r.min_rate(), r.max_rate)) {
      placements[k].push_back(Placement{r.release, r.min_rate()});
    }
  }
  return run_search(network, std::move(order), std::move(placements), options);
}

ExactResult solve_flexible_optimal(const Network& network,
                                   std::span<const Request> requests, Duration step,
                                   ExactOptions options) {
  if (!step.is_positive()) {
    throw std::invalid_argument{"solve_flexible_optimal: step must be positive"};
  }
  std::vector<Request> order{requests.begin(), requests.end()};
  std::sort(order.begin(), order.end(), [](const Request& a, const Request& b) {
    if (a.window() != b.window()) return a.window() < b.window();  // tight first
    return a.id < b.id;
  });
  std::vector<std::vector<Placement>> placements(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const Request& r = order[k];
    const Duration duration = r.volume / r.max_rate;
    for (TimePoint start = r.release; approx_le(start + duration, r.deadline);
         start += step) {
      placements[k].push_back(Placement{start, r.max_rate});
    }
  }
  return run_search(network, std::move(order), std::move(placements), options);
}

}  // namespace gridbw::exact
