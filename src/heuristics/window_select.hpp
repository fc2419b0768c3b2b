// gridbw/heuristics/window_select.hpp
//
// The WINDOW heuristic (§5.2, Algorithm 3) shared by
// schedule_flexible_window and schedule_malleable_window: batch the arrivals
// of each interval, and at its decision instant take the batch's
// minimum-cost candidate, admit it if it fits the CounterLedger and reject it
// otherwise, until the batch is empty. Callers pass in only what differs:
// how finished transfers are reclaimed before a drain (`reclaim`) and what an
// admission starts (`on_admit`).
//
// The candidates sit in a lazily refreshed min-heap. That is exact because
// costs never decrease during a drain: its own admissions are the only
// ledger writes while it runs, and they only add load. So a stale key is a
// lower bound, and a popped entry whose refreshed cost equals its key is the
// true minimum. Invariant: `on_admit` must not release ledger bandwidth
// (pop_min asserts it). The malleable engine keeps it because
// FluidBook::admit never receives the ledger; its reclaims run in
// FluidBook::run_until, before the drain.
//
// The stopping rule. Under kMinCost without the hot-spot penalty the
// selection cost is the admission test's cost. Once a pick is rejected
// while the remaining minimum cost is itself above the admission limit,
// every remaining candidate fails and nothing writes to the ledger again,
// so each cost is final. The drain then rejects the rest in one pass
// (reject_rest): each cost is computed once and the entries are sorted by
// cost. With final costs the heap would emit, again and again, the smallest
// id among the candidates whose cost is approx_le the remaining minimum m.
// Those candidates are a prefix of the sorted tail, and since m only rises
// (and approx_le's tolerance with it) the prefix's end only moves right; so
// a walk over the sorted tail plus a min-id heap over that prefix emits the
// heap's exact order. The rule tests the remaining minimum, not only the
// rejected pick, because a tie is 1e-6 wide and the admission limit
// 1 + 1e-12: a pick costing 1 + 3e-7 fails while a tied candidate costing 1
// with a larger id still fits. Under EDF, SJF or a hot-spot penalty a
// rejection says nothing about the next candidate, and the heap runs to the
// end.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/ledger.hpp"
#include "core/request.hpp"
#include "core/schedule.hpp"
#include "heuristics/bandwidth_policy.hpp"
#include "heuristics/flexible_window.hpp"
#include "obs/observer.hpp"

namespace gridbw::heuristics {

struct WindowCandidate {
  const Request* request;
  Bandwidth bw;  // the rate the policy grants at the decision instant
};

/// max((ali(i) + bw) / B_in(i), (ale(e) + bw) / B_out(e)), plus
/// hotspot_weight times the two ports' mean standing utilization.
[[nodiscard]] double candidate_cost(const CounterLedger& counters, const WindowCandidate& c,
                                    double hotspot_weight);

/// The drain's key: candidate_cost under kMinCost, the deadline under EDF,
/// the transfer time at the granted rate under SJF.
[[nodiscard]] double selection_cost(const CounterLedger& counters, const WindowCandidate& c,
                                    CandidateOrder order, double hotspot_weight);

/// When `chosen`'s capacity-ratio cost (hot-spot penalty excluded) is <= 1,
/// allocates its rate, notes the acceptance and returns true; otherwise
/// records and notes the rejection and returns false.
bool admit_or_reject(const WindowCandidate& chosen, TimePoint decision,
                     CounterLedger& counters, ScheduleResult& result,
                     obs::Observer* observer);

/// The requests a WINDOW run batches: fcfs_arrivals (online.hpp), after
/// throwing std::invalid_argument on a step that is not positive and finite
/// or a hot-spot weight that is not finite and >= 0.
[[nodiscard]] std::vector<Request> window_arrivals(std::span<const Request> requests,
                                                   Duration step, double hotspot_weight,
                                                   ScheduleResult& result,
                                                   obs::Observer* observer);

/// The interval loop and its drain; the heap's storage is reused across the
/// intervals of one run.
class WindowSelector {
 public:
  WindowSelector(CandidateOrder order, double hotspot_weight, obs::Observer* observer)
      : order_{order}, hotspot_weight_{hotspot_weight}, observer_{observer} {}

  /// Algorithm 3 over `arrivals` (as window_arrivals returns them). Each
  /// interval opens at the first pending arrival and decides `step` later:
  /// its arrivals get the rate `policy` grants at the decision instant (or
  /// are rejected as infeasible), `reclaim(decision)` releases what finished
  /// by then, and the batch is drained, calling `on_admit(candidate,
  /// decision)` per admission.
  template <typename Reclaim, typename OnAdmit>
  void run(std::span<const Request> arrivals, Duration step, const BandwidthPolicy& policy,
           CounterLedger& counters, ScheduleResult& result, Reclaim&& reclaim,
           OnAdmit&& on_admit) {
    std::vector<WindowCandidate> batch;
    std::size_t next = 0;
    while (next < arrivals.size()) {
      const TimePoint decision = arrivals[next].release + step;
      batch.clear();
      for (; next < arrivals.size() && arrivals[next].release < decision; ++next) {
        const Request& r = arrivals[next];
        if (const auto bw = policy.assign(r, decision)) {
          batch.push_back(WindowCandidate{&r, *bw});
        } else {  // even MaxRate cannot finish the transfer from `decision`
          result.rejected.push_back(r.id);
          obs::note_rejected(observer_, r.id, decision, obs::RejectReason::kInfeasibleRate);
        }
      }
      reclaim(decision);
      drain(batch, decision, counters, result,
            [&](const WindowCandidate& c) { on_admit(c, decision); });
    }
  }

  /// Decides every candidate of `batch` at `decision`; each admitted one is
  /// passed to `on_admit`. A non-empty batch counts one kWindowHeapDrains.
  template <typename OnAdmit>
  void drain(std::span<const WindowCandidate> batch, TimePoint decision,
             CounterLedger& counters, ScheduleResult& result, OnAdmit&& on_admit) {
    start(batch, counters);
    while (const WindowCandidate* chosen = pop_min(counters)) {
      if (admit_or_reject(*chosen, decision, counters, result, observer_)) {
        on_admit(*chosen);
      } else if (rest_must_fail()) {
        reject_rest(decision, counters, result);
      }
    }
  }

 private:
  struct Entry {
    double cost;  // a lower bound of the candidate's current selection cost
    RequestId id;
    std::size_t slot;  // index into batch_
  };

  void start(std::span<const WindowCandidate> batch, const CounterLedger& counters);

  /// Removes and returns the candidate to decide next; null once none is left.
  const WindowCandidate* pop_min(const CounterLedger& counters);

  /// After a rejection: true when the stopping rule holds (see the file
  /// comment), so every candidate still in the heap must fail.
  [[nodiscard]] bool rest_must_fail() const;

  /// Rejects every candidate still in the heap, in the order pop_min would
  /// decide them, and empties it.
  void reject_rest(TimePoint decision, const CounterLedger& counters,
                   ScheduleResult& result);

  CandidateOrder order_;
  double hotspot_weight_;
  obs::Observer* observer_;
  std::span<const WindowCandidate> batch_;
  std::vector<Entry> heap_;
  std::vector<Entry> ties_;
  double last_min_ = 0.0;  // the true minimum cost behind pop_min's last pick
};

}  // namespace gridbw::heuristics
