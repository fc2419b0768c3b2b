// gridbw/core/validate.hpp
//
// Independent feasibility checking. Every heuristic maintains its own
// running book while scheduling; the validator ignores those books and
// replays the finished schedule against the constraint set (1) of the paper
// using exact port-load profiles. Tests validate every schedule any
// algorithm produces, so allocation bugs cannot hide behind agreeing
// bookkeeping.
//
// One engine: a serial pass over the assignments runs the per-request
// checks and charges each accepted load into flat per-port TimelineProfiles;
// a second pass compares every port's peak with its capacity. It is
// differential-tested in tests/validate_parallel_test.cpp against a peak
// oracle built on the test-support map-of-deltas step function
// (tests/support/step_function.hpp).

#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/ids.hpp"
#include "core/network.hpp"
#include "core/request.hpp"
#include "core/schedule.hpp"
#include "obs/observer.hpp"

namespace gridbw {

enum class ViolationKind {
  kUnknownRequest,        // assignment references an id not in the request set
  kDuplicateAssignment,   // a request id appears in more than one assignment
  kStartBeforeRelease,    // σ(r) < t_s(r)
  kEndAfterDeadline,      // τ(r) > t_f(r)
  kRateAboveMax,          // bw(r) > MaxRate(r) (peak step rate when profiled)
  kRateNotPositive,       // bw(r) <= 0
  kBelowGuaranteedFloor,  // bw(r) < max(f * MaxRate(r), MinRate-from-start)
  kUnknownPort,           // request's ingress/egress is not in the network
  kIngressOverCapacity,   // sum of bw at an ingress exceeds B_in(i)
  kEgressOverCapacity,    // sum of bw at an egress exceeds B_out(e)
  kProfileMalformed,      // rate profile fails RateProfile::defect
  kProfileVolumeMismatch, // profile integral != vol(r)
};

[[nodiscard]] std::string to_string(ViolationKind kind);

struct Violation {
  ViolationKind kind;
  /// Offending request (0 for port-level violations).
  RequestId request{0};
  /// Offending port index (request's port for per-request checks).
  std::size_t port{0};
  std::string detail;
};

struct ValidationReport {
  std::vector<Violation> violations;
  [[nodiscard]] bool ok() const { return violations.empty(); }
  [[nodiscard]] std::string to_string() const;
};

struct ValidateOptions {
  /// The tuning factor f of §2.3: also check
  /// bw(r) >= max(f * MaxRate(r), MinRate-from-start); 0 disables.
  double min_rate_guarantee{0.0};
  /// Optional observability hook: bumps kValidatorRuns / kValidatorAssignments
  /// / kValidatorViolations. Counters only — no events are emitted, so
  /// validating never changes an attached trace.
  obs::Observer* observer{nullptr};
};

/// Checks a schedule against the request set and network capacities.
[[nodiscard]] ValidationReport validate_schedule(const Network& network,
                                                 std::span<const Request> requests,
                                                 const Schedule& schedule,
                                                 const ValidateOptions& options);

/// Back-compatible form: `min_rate_guarantee` only.
[[nodiscard]] ValidationReport validate_schedule(const Network& network,
                                                 std::span<const Request> requests,
                                                 const Schedule& schedule,
                                                 double min_rate_guarantee = 0.0);

/// Validates a raw assignment list that need not satisfy the Schedule
/// class's uniqueness invariant — duplicate request ids are reported as
/// kDuplicateAssignment (the duplicate's load is not double-counted).
[[nodiscard]] ValidationReport validate_assignments(const Network& network,
                                                    std::span<const Request> requests,
                                                    std::span<const Assignment> assignments,
                                                    const ValidateOptions& options = {});

}  // namespace gridbw
