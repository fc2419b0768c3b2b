// gridbw/core/schedule.hpp
//
// The output of every admission algorithm: which requests were accepted,
// and for each accepted request its allocation. Two allocation forms:
//
//  * constant (the paper's model, and the fast path everywhere): a start
//    time σ(r) and one rate bw(r); τ(r) = σ(r) + vol(r)/bw(r) is derived.
//    `profile` is empty.
//  * profiled (ISSUE 9): a piecewise-constant RateProfile — the rate steps
//    at reshape instants. `bw` holds the profile's peak rate (the largest
//    instantaneous grant, checked against MaxRate), `start` its first step,
//    and τ(r) is the profile's explicit end. The profile's integral must
//    equal vol(r); the validator enforces this (kProfileVolumeMismatch).
//
// `for_each_segment` is the single charging helper every load-accounting
// layer (validator, gantt, utilization export, replay) funnels through: it
// emits exactly ONE segment for a constant assignment — the same (t0, t1,
// bw) the pre-profile code charged, so constant schedules stay bit-identical
// — and one segment per step for a profiled one.

#pragma once

#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/ids.hpp"
#include "core/rate_profile.hpp"
#include "core/request.hpp"
#include "util/quantity.hpp"

namespace gridbw {

/// One accepted request's allocation.
struct Assignment {
  RequestId request{0};
  TimePoint start;      // σ(r)
  Bandwidth bw;         // bw(r); peak step rate when profiled
  RateProfile profile;  // empty = constant bw over [start, end(r))

  Assignment() = default;
  /// Constant-rate allocation (the ubiquitous three-field form).
  Assignment(RequestId request_id, TimePoint sigma, Bandwidth rate)
      : request{request_id}, start{sigma}, bw{rate} {}

  [[nodiscard]] bool is_profiled() const { return !profile.empty(); }

  /// τ(r): derived from the volume for constant assignments, explicit for
  /// profiled ones (whose integral carries the volume instead).
  [[nodiscard]] TimePoint end(const Request& r) const {
    return is_profiled() ? profile.end() : r.finish_at(start, bw);
  }

  /// Invokes fn(t0, t1, rate) for every constant-rate span of the
  /// allocation, in time order. One call for a constant assignment (the
  /// exact pre-profile segment), one per step for a profiled one. This is
  /// the charging path every validator/ledger sweep runs per assignment.
  // gridbw:hot
  template <typename Fn>
  void for_each_segment(const Request& r, Fn&& fn) const {
    if (!is_profiled()) {
      fn(start, end(r), bw);
      return;
    }
    const std::span<const RateStep> steps = profile.steps();
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const TimePoint until = i + 1 < steps.size() ? steps[i + 1].from : profile.end();
      fn(steps[i].from, until, steps[i].rate);
    }
  }
};

class Schedule {
 public:
  Schedule() = default;

  /// Records a constant-rate assignment. Throws if the request already has
  /// one.
  void accept(RequestId request, TimePoint start, Bandwidth bw);

  /// Records a profiled assignment. Throws if the request already has one
  /// or the profile is malformed (RateProfile::defect). A single-step
  /// profile is normalized to a plain constant assignment — the constant
  /// form is canonical, so "never reshaped" schedules compare byte-identical
  /// to constant-engine output.
  void accept_profile(RequestId request, RateProfile profile);

  /// Withdraws an assignment (rigid *-SLOTS heuristics retro-remove
  /// requests that fail in a later interval). Returns false if absent.
  bool withdraw(RequestId request);

  [[nodiscard]] bool is_accepted(RequestId request) const;
  [[nodiscard]] std::optional<Assignment> assignment(RequestId request) const;

  [[nodiscard]] std::size_t accepted_count() const { return assignments_.size(); }
  [[nodiscard]] std::span<const Assignment> assignments() const { return assignments_; }

 private:
  std::vector<Assignment> assignments_;
  std::unordered_map<RequestId, std::size_t> index_;  // request -> position
};

/// The full outcome of a scheduling run over a request set.
struct ScheduleResult {
  Schedule schedule;
  std::vector<RequestId> rejected;

  [[nodiscard]] std::size_t accepted_count() const { return schedule.accepted_count(); }
  [[nodiscard]] std::size_t total_count() const {
    return schedule.accepted_count() + rejected.size();
  }
  [[nodiscard]] double accept_rate() const {
    const std::size_t total = total_count();
    return total == 0 ? 0.0 : static_cast<double>(accepted_count()) /
                                  static_cast<double>(total);
  }
};

}  // namespace gridbw
