// gridbw/obs/event.hpp
//
// Structured admission events: the one vocabulary every scheduler speaks
// when an Observer is attached. Events are plain value types — building one
// never allocates or formats, so the enabled path stays cheap and the
// disabled path is a single null-pointer branch at the call site.
//
// Event kinds mirror the lifecycle of a reservation request:
//
//   submitted  — a request (or a retry attempt) entered an admission engine
//   accepted   — the engine granted {σ, bw}
//   rejected   — the engine refused, with a RejectReason from the taxonomy
//   retried    — a rejected attempt was re-queued after a backoff
//   preempted  — a previously admitted request was retro-removed mid-sweep
//                (the rigid *-SLOTS engines)
//   reclaimed  — a finished transfer returned its bandwidth to the ledger
//   expired    — a reservation reached its deadline in the churn service and
//                the expiry path released its bandwidth
//   revoked    — an admitted reservation was forcibly withdrawn before its
//                deadline (capacity loss, operator drain)
//   reshaped   — a malleable engine changed an in-flight transfer's rate
//                (upward when a departure freed capacity, back toward the
//                guarantee when a newcomer claimed its share; never below
//                the admission guarantee, so no revocation is implied)
//
// The RejectReason taxonomy answers the evaluation question Figs. 4–7 pose:
// *which constraint* killed the request as load grows.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/ids.hpp"
#include "util/quantity.hpp"

namespace gridbw::obs {

enum class EventKind : std::uint8_t {
  kSubmitted,
  kAccepted,
  kRejected,
  kRetried,
  kPreempted,
  kReclaimed,
  kExpired,
  kRevoked,
  kReshaped,
};

/// Why an admission engine refused (or retro-removed) a request.
enum class RejectReason : std::uint8_t {
  kNone,                // not a rejection
  kDegenerateWindow,    // deadline <= release: the window carries no volume
  kInfeasibleRate,      // MinRate (from the decision instant) > MaxRate
  kIngressSaturated,    // the ingress port cannot carry the extra bandwidth
  kEgressSaturated,     // the egress port cannot carry the extra bandwidth
  kBothPortsSaturated,  // neither port can
  kNoFeasibleStart,     // no start slot within the book-ahead horizon fits
  kRetroRemoved,        // a *-SLOTS sweep discarded the request in a slice
  kRetriesExhausted,    // every attempt of the retry budget failed
  kReleaseBeforeWatermark,  // released before an earlier drain's last event
};

/// One structured admission event. `when` is always simulated time; wall
/// clocks never appear in the event stream (gridbw-wall-clock).
struct AdmissionEvent {
  EventKind kind{EventKind::kSubmitted};
  RequestId request{0};
  /// Simulated instant of the decision (submission, acceptance, ...).
  TimePoint when;
  /// 1-based submission attempt (always 1 outside the retry engine).
  std::size_t attempt{1};
  /// accepted: the granted start time σ(r).
  TimePoint sigma;
  /// accepted / reclaimed / reshaped: the granted (returned, new) bandwidth.
  Bandwidth bw;
  /// rejected: taxonomy entry; kNone for every other kind.
  RejectReason reason{RejectReason::kNone};
  /// retried: the delay before the next attempt.
  Duration backoff;
};

/// Maps per-port admission verdicts to the saturation taxonomy. Returns
/// kNone when both ports fit (the caller rejected for another reason).
[[nodiscard]] constexpr RejectReason classify_saturation(bool ingress_fits,
                                                         bool egress_fits) {
  if (!ingress_fits && !egress_fits) return RejectReason::kBothPortsSaturated;
  if (!ingress_fits) return RejectReason::kIngressSaturated;
  if (!egress_fits) return RejectReason::kEgressSaturated;
  return RejectReason::kNone;
}

/// Stable lowercase identifiers used in the JSONL schema ("submitted", ...).
[[nodiscard]] std::string to_string(EventKind kind);
/// Stable lowercase identifiers ("ingress_saturated", ...).
[[nodiscard]] std::string to_string(RejectReason reason);

}  // namespace gridbw::obs
