// tests/support/step_function.hpp
//
// A piecewise-constant, right-continuous function of time, represented as a
// sorted map of deltas. Used as the exact allocation profile of a port: each
// accepted request adds `bw` over [start, end), and feasibility means the
// running sum never exceeds the port capacity.
//
// Complexity: add is O(log n); queries are O(n) scans over breakpoints.
// This is the *reference* implementation: obviously correct, kept in the
// test-support library for differential-testing the flat, cache-friendly
// TimelineProfile (core/timeline_profile.hpp) that the library uses —
// validator, ledgers, dataplane replay, BOOK-AHEAD probes.

#pragma once

#include <map>
#include <vector>

#include "util/quantity.hpp"

namespace gridbw {

class StepFunction {
 public:
  /// Adds `delta` to the function over [t0, t1). No-op when t0 >= t1.
  void add(TimePoint t0, TimePoint t1, double delta);

  /// Value at time t (right-continuous: the value on [t, next breakpoint)).
  [[nodiscard]] double value_at(TimePoint t) const;

  /// Maximum over the half-open interval [t0, t1). Returns 0 for an empty
  /// function or an empty interval.
  [[nodiscard]] double max_over(TimePoint t0, TimePoint t1) const;

  /// Maximum over the whole time axis.
  [[nodiscard]] double global_max() const;

  /// Integral over [t0, t1) (value x seconds).
  [[nodiscard]] double integral(TimePoint t0, TimePoint t1) const;

  /// Times at which the function changes value, in increasing order.
  [[nodiscard]] std::vector<TimePoint> breakpoints() const;

  [[nodiscard]] bool empty() const { return deltas_.empty(); }

  /// Removes breakpoints whose accumulated delta has cancelled to ~0 (after
  /// many add/release pairs); keeps query scans short. Values within
  /// `tolerance` of zero are dropped.
  void compact(double tolerance = 1e-9);

 private:
  // time (seconds) -> delta applied from that instant onwards
  std::map<double, double> deltas_;
};

}  // namespace gridbw
