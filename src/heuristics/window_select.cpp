#include "heuristics/window_select.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "heuristics/online.hpp"

namespace gridbw::heuristics {
namespace {

/// Max-heap order that keeps the smallest (cost, id) on top.
constexpr auto kWorse = [](const auto& a, const auto& b) {
  return a.cost != b.cost ? a.cost > b.cost : a.id > b.id;
};

/// Costs within approx_le of the minimum tie and go to the smallest request
/// id, so platform rounding (libm, FMA contraction) cannot change the pick.
bool cost_tied(double cost, double min_cost) { return approx_le(cost, min_cost); }

/// The admission test: a capacity-ratio cost fits when it is at most this.
constexpr double kAdmitLimit = 1.0 + 1e-12;

/// Records `chosen`'s rejection and narrates which port saturated.
void reject(const WindowCandidate& chosen, TimePoint decision,
            const CounterLedger& counters, ScheduleResult& result,
            obs::Observer* observer) {
  const Request& r = *chosen.request;
  result.rejected.push_back(r.id);
  if (observer != nullptr) {
    obs::note_rejected(
        observer, r.id, decision,
        obs::classify_saturation(
            counters.ingress_util_with(r.ingress, chosen.bw) <= kAdmitLimit,
            counters.egress_util_with(r.egress, chosen.bw) <= kAdmitLimit));
  }
}

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
  if (candidate_cost(counters, chosen, 0.0) > kAdmitLimit) {
    reject(chosen, decision, counters, result, observer);
    return false;
  }
  const Request& r = *chosen.request;
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
  return fcfs_arrivals(requests, result, observer);
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
    const double current = current_cost(top);
    if (current > top.cost) {
      top.cost = current;  // stale lower bound: refresh and retry
      push(top);
      continue;
    }
    assert(!(current < top.cost) && "a selection cost decreased during a drain");
    // `top` holds the true minimum. Gather every candidate whose current
    // cost ties it: its key is a lower bound, so it is in the band too.
    last_min_ = top.cost;
    ties_.assign(1, top);
    while (!heap_.empty() && cost_tied(heap_.front().cost, top.cost)) {
      Entry e = pop();
      const double refreshed = current_cost(e);
      assert(!(refreshed < e.cost) && "a selection cost decreased during a drain");
      e.cost = refreshed;
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

bool WindowSelector::rest_must_fail() const {
  return order_ == CandidateOrder::kMinCost && hotspot_weight_ == 0.0 &&
         last_min_ > kAdmitLimit;
}

void WindowSelector::reject_rest(TimePoint decision, const CounterLedger& counters,
                                 ScheduleResult& result) {
  // No candidate left fits, so nothing writes to the ledger again: each cost
  // computed here is final. Equal costs may sort in any order: the band
  // below picks by id.
  for (Entry& e : heap_) e.cost = candidate_cost(counters, batch_[e.slot], 0.0);
  std::sort(heap_.begin(), heap_.end(),
            [](const Entry& a, const Entry& b) { return a.cost < b.cost; });
  // pop_min's order, replayed: ties_ is a min-id heap over the band, the
  // sorted entries whose cost ties the cheapest one not yet rejected. Its
  // entries' `slot` indexes heap_; a rejected heap_ entry's slot is kDone.
  constexpr std::size_t kDone = std::numeric_limits<std::size_t>::max();
  constexpr auto larger_id = [](const Entry& a, const Entry& b) { return a.id > b.id; };
  ties_.clear();
  std::size_t cheapest = 0;  // the first entry not yet rejected
  std::size_t band_end = 0;
  while (cheapest < heap_.size()) {
    const double min_cost = heap_[cheapest].cost;
    for (; band_end < heap_.size() && cost_tied(heap_[band_end].cost, min_cost);
         ++band_end) {
      ties_.push_back(Entry{heap_[band_end].cost, heap_[band_end].id, band_end});
      std::push_heap(ties_.begin(), ties_.end(), larger_id);
    }
    std::pop_heap(ties_.begin(), ties_.end(), larger_id);
    Entry& next = heap_[ties_.back().slot];
    ties_.pop_back();
    reject(batch_[next.slot], decision, counters, result, observer_);
    next.slot = kDone;
    while (cheapest < band_end && heap_[cheapest].slot == kDone) ++cheapest;
  }
  heap_.clear();
}

}  // namespace gridbw::heuristics
