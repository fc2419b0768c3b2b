// gridbw/core/ledger.hpp
//
// Two bandwidth-accounting books:
//
//  * NetworkLedger — the exact, time-aware book. Each port owns a flat
//    TimelineProfile allocation profile; `fits` asks whether an extra `bw`
//    over [t0, t1) would exceed the port capacity anywhere. Used by the
//    rigid heuristics (whose reservations span arbitrary future windows),
//    the BOOK-AHEAD feasibility probes, and the optimality solvers. Each
//    probe is the port's `max_over` scan, O(log n + window breakpoints)
//    since the profile merges only the touched suffix (DESIGN.md §5c):
//    the ledger keeps no per-port index beside its profiles (DESIGN.md §5g
//    says why). It keeps every breakpoint too: a batch engine's ledger
//    lives for one run. Retiring dead breakpoints is the online
//    AdmissionService's job (DESIGN.md §5h).
//
//  * CounterLedger — the paper's O(1) online book (`ali`/`ale` in
//    Algorithms 2 and 3): one running counter per port, increased on accept
//    and reclaimed when a transfer finishes. Valid only for *online* use
//    where all active allocations share the current instant.

#pragma once

#include <span>
#include <vector>

#include "core/ids.hpp"
#include "core/network.hpp"
#include "core/timeline_profile.hpp"
#include "obs/observer.hpp"
#include "util/quantity.hpp"

namespace gridbw {

/// Exact time-aware allocation book over all ports of a network.
///
/// Thread safety: like TimelineProfile queries, `fits` may run the
/// profiles' lazy merge even though it is const. A NetworkLedger must not
/// be shared across threads; every scheduling engine owns its own instance.
class NetworkLedger {
 public:
  explicit NetworkLedger(const Network& network);

  /// Would adding `bw` on ports (i, e) over [t0, t1) keep both within
  /// capacity everywhere? (Uses the approx_le tolerance.)
  [[nodiscard]] bool fits(IngressId i, EgressId e, TimePoint t0, TimePoint t1,
                          Bandwidth bw) const;

  /// Per-port halves of `fits`: the port's peak over [t0, t1) plus `bw`
  /// must be approx_le its capacity. Rejection-reason classification calls
  /// them directly. Pure queries: they bump no observer counters.
  [[nodiscard]] bool fits_ingress(IngressId i, TimePoint t0, TimePoint t1,
                                  Bandwidth bw) const;
  [[nodiscard]] bool fits_egress(EgressId e, TimePoint t0, TimePoint t1,
                                 Bandwidth bw) const;

  /// Commits `bw` on (i, e) over [t0, t1). Does not re-check `fits`.
  void reserve(IngressId i, EgressId e, TimePoint t0, TimePoint t1, Bandwidth bw);

  /// Reverses a previous `reserve` with identical arguments.
  void release(IngressId i, EgressId e, TimePoint t0, TimePoint t1, Bandwidth bw);

  [[nodiscard]] const TimelineProfile& ingress_profile(IngressId i) const {
    return ingress_.at(i.value);
  }
  [[nodiscard]] const TimelineProfile& egress_profile(EgressId e) const {
    return egress_.at(e.value);
  }
  [[nodiscard]] const Network& network() const { return *network_; }

  /// Mirrors fits/reserve/release into the observer's ledger counters
  /// (kLedgerFitsChecks, ...). Null detaches; the disabled path is one
  /// branch per call.
  void attach_observer(obs::Observer* observer) { observer_ = observer; }

 private:
  const Network* network_;
  std::vector<TimelineProfile> ingress_;
  std::vector<TimelineProfile> egress_;
  obs::Observer* observer_{nullptr};
};

/// The paper's online counters: ali(i), ale(e).
///
/// Unlike NetworkLedger, this book is uninstrumented on its hot paths: the
/// methods are O(1) and sit inside slice-sweep loops that call them millions
/// of times, where even a disabled-observer branch is measurable in
/// unoptimized builds. Engines narrate admissions via the note_* helpers.
/// The one exception is the anomaly hook: `reclaim` driving a counter below
/// zero by more than the admission tolerance is a mismatched
/// allocate/reclaim pair, asserted in debug builds and counted
/// (kLedgerDriftClamped) when an observer is attached — that branch is only
/// ever reached on the clamp path, so healthy runs pay nothing.
class CounterLedger {
 public:
  explicit CounterLedger(const Network& network);

  /// ali(i) + bw <= B_in(i) and ale(e) + bw <= B_out(e)?
  [[nodiscard]] bool fits(IngressId i, EgressId e, Bandwidth bw) const;

  /// ali(i) += bw; ale(e) += bw. Does not re-check `fits`.
  void allocate(IngressId i, EgressId e, Bandwidth bw);

  /// Reclaims a finished transfer's bandwidth. Counters dipping a hair
  /// below zero (FP noise on long allocate/reclaim chains) are clamped
  /// silently; drift beyond the 1 byte/s admission tolerance trips a debug
  /// assertion and bumps kLedgerDriftClamped on the attached observer.
  void reclaim(IngressId i, EgressId e, Bandwidth bw);

  /// Attaches the drift-anomaly observer (see class comment). Null detaches.
  void attach_observer(obs::Observer* observer) { observer_ = observer; }

  /// Zeroes every counter in place (no reallocation) — the cheap
  /// alternative to constructing a fresh ledger per time slice.
  void reset();

  [[nodiscard]] Bandwidth allocated_ingress(IngressId i) const {
    return ingress_.at(i.value);
  }
  [[nodiscard]] Bandwidth allocated_egress(EgressId e) const { return egress_.at(e.value); }

  /// Utilization ratios used by the WINDOW heuristic's cost function:
  /// (ali(i) + bw) / B_in(i) and (ale(e) + bw) / B_out(e).
  [[nodiscard]] double ingress_util_with(IngressId i, Bandwidth bw) const;
  [[nodiscard]] double egress_util_with(EgressId e, Bandwidth bw) const;

  /// Per-port halves of `fits`, for rejection-reason classification.
  [[nodiscard]] bool fits_ingress(IngressId i, Bandwidth bw) const {
    return approx_le(ingress_.at(i.value) + bw, network_->ingress_capacity(i));
  }
  [[nodiscard]] bool fits_egress(EgressId e, Bandwidth bw) const {
    return approx_le(egress_.at(e.value) + bw, network_->egress_capacity(e));
  }

  [[nodiscard]] const Network& network() const { return *network_; }

 private:
  /// Cold half of the reclaim clamp: asserts/counts when `value` is below
  /// -1 byte/s. Out of line so the hot loop only pays a call on the
  /// (already rare) negative branch.
  void note_negative_drift(Bandwidth value) const;

  const Network* network_;
  std::vector<Bandwidth> ingress_;
  std::vector<Bandwidth> egress_;
  obs::Observer* observer_{nullptr};
};

}  // namespace gridbw
