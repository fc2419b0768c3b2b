#include "heuristics/malleable.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <vector>

#include "core/ledger.hpp"
#include "heuristics/online.hpp"
#include "heuristics/water_fill.hpp"
#include "heuristics/window_select.hpp"

namespace gridbw::heuristics {
namespace {

/// A predicted finish of the flow in FluidBook::flows_[slot]. Its heap uses
/// Completions' comparator and, with reshaping off, its push sequence, so the
/// pop order (ties included) is flexible_greedy's/flexible_window's.
struct FlowFinish {
  TimePoint finish;
  std::size_t slot;
};

/// One admitted transfer in flight. The fluid state (remaining volume,
/// current rate) is rebased lazily: `remaining_bytes` is exact as of
/// `updated`, and `finish` is the cached completion prediction at the
/// current rate. A flow whose rate never changes keeps the finish computed
/// at admission (Request::finish_at, as the constant engines do), so the
/// reshape-off mode is FP-identical to them.
struct Flow {
  const Request* request{nullptr};
  Bandwidth guarantee;
  double rate_bps{0.0};
  double remaining_bytes{0.0};
  TimePoint updated;
  TimePoint finish;
  RateProfile profile;
  bool live{false};
};

/// The execution half of the malleable engines: runs admitted flows as a
/// fluid system, water-filling residual port capacity across them between
/// admission events. Owns completion sequencing and profile finalization;
/// admission itself stays in the caller's CounterLedger (the guarantee
/// book), which this class only touches to reclaim a finished guarantee.
///
/// Every event costs O(live): `live_` lists the slots of the flows in
/// flight, in admission order, and is all a refill reads. Slots are never
/// reused, because stale heap entries still name theirs.
class FluidBook {
 public:
  FluidBook(const Network& network, bool reshape, obs::Observer* observer,
            ScheduleResult& result)
      : reshape_{reshape}, observer_{observer}, result_{&result} {
    for (std::size_t p = 0; p < network.ingress_count(); ++p) {
      in_capacity_.push_back(network.ingress_capacity(IngressId{p}).to_bytes_per_second());
    }
    for (std::size_t p = 0; p < network.egress_count(); ++p) {
      out_capacity_.push_back(network.egress_capacity(EgressId{p}).to_bytes_per_second());
    }
  }

  /// Starts an admitted flow at its guarantee rate. The caller has already
  /// allocated the guarantee in its ledger and emitted note_accepted.
  void admit(const Request& r, TimePoint when, Bandwidth guarantee) {
    Flow f;
    f.request = &r;
    f.guarantee = guarantee;
    f.rate_bps = guarantee.to_bytes_per_second();
    f.remaining_bytes = r.volume.to_bytes();
    f.updated = when;
    f.finish = r.finish_at(when, guarantee);
    f.profile.append(when, guarantee);
    f.live = true;
    const std::size_t slot = flows_.size();
    flows_.push_back(std::move(f));
    live_.push_back(slot);
    completions_.push(FlowFinish{flows_.back().finish, slot});
    if (reshape_) refill(when);
  }

  /// Processes every completion predicted at or before `t` (and the upward
  /// reshapes each departure triggers, which may pull further completions
  /// under `t`). Reclaims each finished guarantee from `counters`.
  void run_until(TimePoint t, CounterLedger& counters) {
    while (!completions_.empty() && completions_.top().finish <= t) {
      step_one(counters);
    }
  }

  /// Finalizes every outstanding flow (end-of-run drain).
  void drain_all(CounterLedger& counters) {
    while (!completions_.empty()) step_one(counters);
  }

 private:
  void step_one(CounterLedger& counters) {
    const FlowFinish done = completions_.top();
    completions_.pop();
    Flow& f = flows_[done.slot];
    // A reshape superseded this prediction; the flow's live entry carries
    // its current finish. (With reshaping off every entry is current.)
    if (!f.live || f.finish != done.finish) return;
    f.live = false;
    live_.erase(std::find(live_.begin(), live_.end(), done.slot));
    f.profile.set_end(done.finish);
    const Request& r = *f.request;
    result_->schedule.accept_profile(r.id, std::move(f.profile));
    counters.reclaim(r.ingress, r.egress, f.guarantee);
    obs::note_reclaimed(observer_, r.id, done.finish, f.guarantee);
    if (reshape_ && !live_.empty()) refill(done.finish);
  }

  /// Rebases every live flow's remaining volume to `t`, recomputes the
  /// water-fill, and turns rate changes into profile steps + reshaped
  /// events + fresh completion predictions.
  void refill(TimePoint t) {
    fill_.clear();
    for (const std::size_t slot : live_) {
      Flow& f = flows_[slot];
      if (f.updated < t) {
        f.remaining_bytes = std::max(
            0.0, f.remaining_bytes - f.rate_bps * (t - f.updated).to_seconds());
        f.updated = t;
      }
      fill_.push_back(FillFlow{f.request->ingress.value, f.request->egress.value,
                               f.guarantee.to_bytes_per_second(),
                               f.request->max_rate.to_bytes_per_second()});
    }
    water_fill(fill_, in_capacity_, out_capacity_, rates_, scratch_);
    // Sub-millibyte/s rate moves are FP wobble from recomputing the fill,
    // not decisions — suppress them so profiles stay meaningful. The
    // threshold must stay far below the validator's 1 B/s port tolerance:
    // every suppressed *decrease* leaves the flow marginally above its
    // water-fill share, and those slivers sum across flows.
    constexpr double kStepEps = 1e-3;
    for (std::size_t k = 0; k < live_.size(); ++k) {
      Flow& f = flows_[live_[k]];
      const double next = rates_[k];
      if (std::fabs(next - f.rate_bps) <= kStepEps) continue;
      f.rate_bps = next;
      f.finish = t + Duration::seconds(f.remaining_bytes / next);
      const Bandwidth rate = Bandwidth::bytes_per_second(next);
      f.profile.append(t, rate);
      // Reshapes at one instant can collapse the profile back to one step,
      // which the schedule keeps as a constant assignment ending at
      // Request::finish_at; the flow must finish at that same instant.
      if (f.profile.size() == 1) f.finish = f.request->finish_at(f.profile.start(), rate);
      completions_.push(FlowFinish{f.finish, live_[k]});
      obs::note_reshaped(observer_, f.request->id, t, rate);
    }
  }

  bool reshape_;
  obs::Observer* observer_;
  ScheduleResult* result_;
  std::vector<double> in_capacity_;   // bytes/s, per ingress port
  std::vector<double> out_capacity_;  // bytes/s, per egress port
  std::vector<Flow> flows_;           // every admitted flow, by slot
  std::vector<std::size_t> live_;     // slots in flight, admission order
  std::priority_queue<FlowFinish, std::vector<FlowFinish>, LaterFinish> completions_;
  // Refill working state, member-owned to avoid per-event allocation.
  std::vector<FillFlow> fill_;
  std::vector<double> rates_;
  FillScratch scratch_;
};

}  // namespace

ScheduleResult schedule_malleable_greedy(const Network& network,
                                         std::span<const Request> requests,
                                         const MalleableOptions& options,
                                         obs::Observer* observer) {
  ScheduleResult result;
  const std::vector<Request> order = fcfs_arrivals(requests, result, observer);

  CounterLedger counters{network};
  FluidBook book{network, options.reshape, observer, result};

  for (const Request& r : order) {
    book.run_until(r.release, counters);
    const auto g = options.policy.assign(r, r.release);
    if (g.has_value() && counters.fits(r.ingress, r.egress, *g)) {
      counters.allocate(r.ingress, r.egress, *g);
      obs::note_accepted(observer, r.id, r.release, r.release, *g);
      book.admit(r, r.release, *g);
    } else {
      result.rejected.push_back(r.id);
      if (observer != nullptr) {
        const obs::RejectReason reason =
            g.has_value() ? obs::classify_saturation(
                                counters.fits_ingress(r.ingress, *g),
                                counters.fits_egress(r.egress, *g))
                          : obs::RejectReason::kInfeasibleRate;
        obs::note_rejected(observer, r.id, r.release, reason);
      }
    }
  }
  book.drain_all(counters);
  return result;
}

ScheduleResult schedule_malleable_window(const Network& network,
                                         std::span<const Request> requests,
                                         const MalleableOptions& options,
                                         obs::Observer* observer) {
  ScheduleResult result;
  const std::vector<Request> arrivals =
      window_arrivals(requests, options.step, options.hotspot_weight, result, observer);
  CounterLedger counters{network};
  FluidBook book{network, options.reshape, observer, result};
  WindowSelector selector{options.order, options.hotspot_weight, observer};
  // Fluid events (completions and the reshapes they trigger) run up to each
  // decision instant before its drain, so the counters a drain sees are
  // exactly what the constant WINDOW's lazy reclaim produces. FluidBook::admit
  // never sees `counters`, which keeps the drain's invariant
  // (window_select.hpp).
  selector.run(
      arrivals, options.step, options.policy, counters, result,
      [&](TimePoint decision) { book.run_until(decision, counters); },
      [&](const WindowCandidate& c, TimePoint decision) {
        book.admit(*c.request, decision, c.bw);
      });
  book.drain_all(counters);
  return result;
}

}  // namespace gridbw::heuristics
