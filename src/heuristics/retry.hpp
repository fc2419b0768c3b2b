// gridbw/heuristics/retry.hpp
//
// Client resubmission (§2.3: rejected customers "can also stand the risk of
// being rejected and try later"). A rejected request is resubmitted after a
// backoff with its window shifted intact (same length, same volume, same
// host limit — the user asks again for the same relative deadline). The
// admission engine is the online GREEDY of Algorithm 2 with a pluggable
// bandwidth policy.
//
// The simulation is event-driven on submissions and completions; the
// returned schedule contains each accepted request exactly once, under its
// original id, with the start time of the successful attempt. A degenerate
// window (deadline <= release) is rejected at its first submission, like in
// every other engine, and never retried.

#pragma once

#include <span>

#include "core/network.hpp"
#include "core/request.hpp"
#include "core/schedule.hpp"
#include "heuristics/bandwidth_policy.hpp"
#include "obs/observer.hpp"

namespace gridbw::heuristics {

struct RetryPolicy {
  /// Total submission attempts per request (1 = no retries).
  std::size_t max_attempts{3};
  /// Delay before the first retry. Must be finite and non-negative.
  Duration initial_backoff{Duration::seconds(60)};
  /// Each further retry multiplies the backoff by this factor. Must be
  /// finite and >= 1.
  double backoff_factor{2.0};
};

struct RetryResult {
  ScheduleResult result;
  /// Retries actually issued (excludes first attempts).
  std::size_t retries_issued{0};
  /// Requests accepted on a retry (not on their first attempt).
  std::size_t accepted_on_retry{0};
  /// The request set with each request's *final* window (shifted for
  /// requests accepted or exhausted on a retry). Validate the schedule
  /// against this set — a retried acceptance renegotiated its deadline.
  std::vector<Request> effective_requests;
};

[[nodiscard]] RetryResult schedule_greedy_with_retries(const Network& network,
                                                       std::span<const Request> requests,
                                                       BandwidthPolicy policy,
                                                       const RetryPolicy& retry,
                                                       obs::Observer* observer = nullptr);

}  // namespace gridbw::heuristics
