#include "heuristics/window_select.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gridbw::heuristics {
namespace {

/// Max-heap order that keeps the smallest (cost, id) on top.
constexpr auto kWorse = [](const auto& a, const auto& b) {
  return a.cost != b.cost ? a.cost > b.cost : a.id > b.id;
};

/// Costs within approx_le of the minimum tie and go to the smallest request
/// id, so platform rounding (libm, FMA contraction) cannot change the pick.
bool cost_tied(double cost, double min_cost) { return approx_le(cost, min_cost); }

}  // namespace

double candidate_cost(const CounterLedger& counters, const WindowCandidate& c,
                      double hotspot_weight) {
  const Request& r = *c.request;
  double cost = std::max(counters.ingress_util_with(r.ingress, c.bw),
                         counters.egress_util_with(r.egress, c.bw));
  if (hotspot_weight > 0.0) {
    const double standing =
        (counters.ingress_util_with(r.ingress, Bandwidth::zero()) +
         counters.egress_util_with(r.egress, Bandwidth::zero())) /
        2.0;
    cost += hotspot_weight * standing;
  }
  return cost;
}

double selection_cost(const CounterLedger& counters, const WindowCandidate& c,
                      CandidateOrder order, double hotspot_weight) {
  switch (order) {
    case CandidateOrder::kMinCost:
      return candidate_cost(counters, c, hotspot_weight);
    case CandidateOrder::kEarliestDeadline:
      return c.request->deadline.to_seconds();
    case CandidateOrder::kShortestJob:
      return (c.request->volume / c.bw).to_seconds();
  }
  throw std::logic_error{"selection_cost: bad candidate order"};
}

bool admit_or_reject(const WindowCandidate& chosen, TimePoint decision,
                     CounterLedger& counters, ScheduleResult& result,
                     obs::Observer* observer) {
  // Without the hot-spot penalty this test and the selection cost coincide,
  // so "minimum cost > 1" means no candidate fits: the paper's stopping rule.
  const Request& r = *chosen.request;
  if (candidate_cost(counters, chosen, 0.0) > 1.0 + 1e-12) {
    result.rejected.push_back(r.id);
    if (observer != nullptr) {
      obs::note_rejected(
          observer, r.id, decision,
          obs::classify_saturation(
              counters.ingress_util_with(r.ingress, chosen.bw) <= 1.0 + 1e-12,
              counters.egress_util_with(r.egress, chosen.bw) <= 1.0 + 1e-12));
    }
    return false;
  }
  counters.allocate(r.ingress, r.egress, chosen.bw);
  obs::note_accepted(observer, r.id, decision, decision, chosen.bw);
  return true;
}

std::vector<Request> window_arrivals(std::span<const Request> requests, Duration step,
                                     double hotspot_weight, ScheduleResult& result,
                                     obs::Observer* observer) {
  // Written as negated >= / <= so NaN fails every gate (NaN comparisons are
  // false, so `step < x` style checks would wave NaN straight through).
  if (!step.is_positive() || !std::isfinite(step.to_seconds())) {
    throw std::invalid_argument{"WINDOW: step must be positive and finite"};
  }
  if (!(hotspot_weight >= 0.0) || !std::isfinite(hotspot_weight)) {
    throw std::invalid_argument{"WINDOW: hotspot_weight must be finite and >= 0"};
  }
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

void WindowSelector::start(std::span<const WindowCandidate> batch,
                           const CounterLedger& counters) {
  batch_ = batch;
  heap_.clear();
  for (std::size_t k = 0; k < batch.size(); ++k) {
    heap_.push_back(Entry{selection_cost(counters, batch[k], order_, hotspot_weight_),
                          batch[k].request->id, k});
  }
  std::make_heap(heap_.begin(), heap_.end(), kWorse);
  if (observer_ != nullptr && !batch.empty()) {
    observer_->count(obs::Counter::kWindowHeapDrains);
  }
}

const WindowCandidate* WindowSelector::pop_min(const CounterLedger& counters) {
  const auto current_cost = [&](const Entry& e) {
    return selection_cost(counters, batch_[e.slot], order_, hotspot_weight_);
  };
  const auto pop = [&] {
    std::pop_heap(heap_.begin(), heap_.end(), kWorse);
    const Entry e = heap_.back();
    heap_.pop_back();
    return e;
  };
  const auto push = [&](const Entry& e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), kWorse);
  };

  while (!heap_.empty()) {
    Entry top = pop();
    if (const double current = current_cost(top); current > top.cost) {
      top.cost = current;  // stale lower bound: refresh and retry
      push(top);
      continue;
    }
    // `top` holds the true minimum. Gather every candidate whose current
    // cost ties it: its key is a lower bound, so it is in the band too.
    ties_.assign(1, top);
    while (!heap_.empty() && cost_tied(heap_.front().cost, top.cost)) {
      Entry e = pop();
      e.cost = current_cost(e);
      if (cost_tied(e.cost, top.cost)) {
        ties_.push_back(e);
      } else {
        push(e);
      }
    }
    const std::size_t slot =
        std::min_element(ties_.begin(), ties_.end(), [](const Entry& a, const Entry& b) {
          return a.id < b.id;
        })->slot;
    for (const Entry& e : ties_) {
      if (e.slot != slot) push(e);
    }
    return &batch_[slot];
  }
  return nullptr;
}

}  // namespace gridbw::heuristics
