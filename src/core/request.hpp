// gridbw/core/request.hpp
//
// A short-lived bulk-transfer request (paper §2.1):
//
//   r = (ingress, egress, [t_s, t_f], vol, MaxRate)
//
// MinRate(r) = vol / (t_f - t_s) is derived: the slowest constant rate that
// still finishes inside the requested window. A request is *rigid* when
// MinRate == MaxRate (no bandwidth choice) and *flexible* otherwise.

#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/ids.hpp"
#include "util/quantity.hpp"

namespace gridbw {

struct Request {
  RequestId id{0};
  IngressId ingress{};
  EgressId egress{};
  /// Requested transmission window [t_s, t_f].
  TimePoint release;   // t_s(r): earliest start (also the arrival time)
  TimePoint deadline;  // t_f(r): latest completion
  Volume volume;
  /// Transmission limit of the attached host.
  Bandwidth max_rate;

  /// vol(r) / (t_f - t_s): minimum feasible constant rate.
  [[nodiscard]] Bandwidth min_rate() const { return volume / (deadline - release); }

  /// Requested window length.
  [[nodiscard]] Duration window() const { return deadline - release; }

  /// Minimum feasible rate when the transfer only starts at `start`
  /// (>= release): vol / (t_f - start). Infinite if start >= deadline.
  [[nodiscard]] Bandwidth min_rate_from(TimePoint start) const {
    const Duration remaining = deadline - start;
    if (!remaining.is_positive()) return Bandwidth::infinity();
    return volume / remaining;
  }

  /// Transfer time at rate `bw`.
  [[nodiscard]] Duration transfer_time(Bandwidth bw) const { return volume / bw; }

  /// τ(r) of a constant-rate transfer started at `start` at rate `bw`:
  /// start + vol / bw. The one finish expression every engine and the
  /// schedule share.
  [[nodiscard]] TimePoint finish_at(TimePoint start, Bandwidth bw) const {
    return start + volume / bw;
  }

  /// MinRate == MaxRate within tolerance: the request admits exactly one
  /// bandwidth and must occupy its whole window.
  [[nodiscard]] bool is_rigid() const {
    return approx_le(max_rate, min_rate());  // min_rate <= max_rate always holds
  }

  /// A request is well-formed when its release, deadline, window and volume
  /// are finite, the window and the volume are positive, and MaxRate is
  /// finite and high enough to finish inside the window.
  [[nodiscard]] bool is_well_formed() const;

  /// Diagnostic rendering ("r42: in3->out7 [10s,110s] 500 GB <= 1.0 GB/s").
  [[nodiscard]] std::string describe() const;
};

/// Fluent builder, mainly for tests and examples. Throws on an ill-formed
/// request at `build()` time.
class RequestBuilder {
 public:
  explicit RequestBuilder(RequestId id) { request_.id = id; }

  RequestBuilder& from(IngressId i) { request_.ingress = i; return *this; }
  RequestBuilder& to(EgressId e) { request_.egress = e; return *this; }
  RequestBuilder& window(TimePoint release, TimePoint deadline) {
    request_.release = release;
    request_.deadline = deadline;
    return *this;
  }
  RequestBuilder& volume(Volume v) { request_.volume = v; return *this; }
  RequestBuilder& max_rate(Bandwidth b) { request_.max_rate = b; return *this; }

  /// Convenience: rigid request transmitting at exactly `rate` for the whole
  /// window [release, release + length] (volume = rate * length).
  RequestBuilder& rigid(TimePoint release, Duration length, Bandwidth rate) {
    request_.release = release;
    request_.deadline = release + length;
    request_.volume = rate * length;
    request_.max_rate = rate;
    return *this;
  }

  [[nodiscard]] Request build() const;

 private:
  Request request_;
};

/// Sorts requests by release time, breaking ties by ascending MinRate and
/// then id (the FCFS service order of §4.1 / §5.1). Stable and total.
void sort_fcfs(std::vector<Request>& requests);

/// Total demanded bandwidth sum_{r} MinRate(r) — numerator of the paper's
/// §4.3 load definition.
[[nodiscard]] Bandwidth total_demand(std::span<const Request> requests);

}  // namespace gridbw
