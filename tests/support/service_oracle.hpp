// tests/support/service_oracle.hpp
//
// Test-side readings of a drained AdmissionService's decision trace. The
// service keeps no per-request history, so the outcome of each request and
// the order its drain ran in are read from the events an observer
// recorded, and the order is checked against the literal construction:
// every event of the batch in one list, one stable_sort.

#pragma once

#include <set>
#include <span>
#include <vector>

#include "core/ids.hpp"
#include "core/request.hpp"
#include "obs/event.hpp"

namespace gridbw::oracle {

/// Ids with an `accepted` event in `trace`.
[[nodiscard]] std::set<RequestId> admitted_ids(std::span<const obs::AdmissionEvent> trace);

/// One event of a drain as its trace shows it: the arrival (`submitted`)
/// or the departure (`expired`) of request `id` at simulated time `t`.
struct DrainEvent {
  bool departure{false};
  RequestId id{0};
  double t{0.0};
  bool operator==(const DrainEvent&) const = default;
};

/// The order one drain must run its batch in. Every request of `batch`
/// arrives at its release, and each request `trace` shows accepted departs
/// at its deadline; the list is ordered by one stable_sort on (t,
/// departures first, index), where index is the request's position in id
/// order. `batch` is the drain's submissions in any order; `trace` holds
/// that drain's events only.
[[nodiscard]] std::vector<DrainEvent> expected_drain_order(
    std::span<const Request> batch, std::span<const obs::AdmissionEvent> trace);

/// The arrivals and departures of `trace` in recorded order. Throws
/// std::runtime_error unless each `submitted` event is followed at once by
/// the `accepted` or `rejected` event of the same request.
[[nodiscard]] std::vector<DrainEvent> traced_drain_order(
    std::span<const obs::AdmissionEvent> trace);

}  // namespace gridbw::oracle
