#include "core/validate.hpp"

#include <array>
#include <cstdio>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "core/timeline_profile.hpp"

namespace gridbw {

std::string to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kUnknownRequest: return "unknown-request";
    case ViolationKind::kDuplicateAssignment: return "duplicate-assignment";
    case ViolationKind::kStartBeforeRelease: return "start-before-release";
    case ViolationKind::kEndAfterDeadline: return "end-after-deadline";
    case ViolationKind::kRateAboveMax: return "rate-above-max";
    case ViolationKind::kRateNotPositive: return "rate-not-positive";
    case ViolationKind::kBelowGuaranteedFloor: return "below-guaranteed-floor";
    case ViolationKind::kUnknownPort: return "unknown-port";
    case ViolationKind::kIngressOverCapacity: return "ingress-over-capacity";
    case ViolationKind::kEgressOverCapacity: return "egress-over-capacity";
    case ViolationKind::kProfileMalformed: return "profile-malformed";
    case ViolationKind::kProfileVolumeMismatch: return "profile-volume-mismatch";
  }
  return "unknown";
}

std::string ValidationReport::to_string() const {
  if (ok()) return "valid";
  std::ostringstream oss;
  oss << violations.size() << " violation(s):\n";
  for (const Violation& v : violations) {
    oss << "  [" << gridbw::to_string(v.kind) << "] r" << v.request << " port "
        << v.port << ": " << v.detail << '\n';
  }
  return oss.str();
}

ValidationReport validate_assignments(const Network& network,
                                      std::span<const Request> requests,
                                      std::span<const Assignment> assignments,
                                      const ValidateOptions& options) {
  ValidationReport report;
  auto flag = [&](ViolationKind kind, RequestId id, std::size_t port,
                  std::string detail) {
    report.violations.push_back(Violation{kind, id, port, std::move(detail)});
  };

  std::unordered_map<RequestId, const Request*> by_id;
  by_id.reserve(requests.size());
  for (const Request& r : requests) by_id.emplace(r.id, &r);

  const std::size_t in_count = network.ingress_count();
  const std::size_t out_count = network.egress_count();
  const std::size_t port_count = in_count + out_count;

  // Pass 1: per-request checks, plus charging every accepted load into
  // per-port TimelineProfiles (ingress ports first, then egress ports) in
  // assignment order.
  std::vector<TimelineProfile> profiles(port_count);
  std::unordered_set<RequestId> seen;
  seen.reserve(assignments.size());

  for (const Assignment& a : assignments) {
    const auto it = by_id.find(a.request);
    if (it == by_id.end()) {
      flag(ViolationKind::kUnknownRequest, a.request, 0, "no such request in the set");
      continue;
    }
    const Request& r = *it->second;

    if (!seen.insert(r.id).second) {
      // The first copy already contributed its load; counting the duplicate
      // too would double-book the port without naming the culprit.
      flag(ViolationKind::kDuplicateAssignment, r.id, 0,
           "request assigned more than once");
      continue;
    }
    if (!a.bw.is_positive()) {
      flag(ViolationKind::kRateNotPositive, r.id, 0,
           "assigned rate " + gridbw::to_string(a.bw));
      continue;  // end time undefined; skip further checks for this one
    }
    if (a.is_profiled()) {
      // A malformed profile has no well-defined load; don't charge it.
      if (const auto why = a.profile.defect(a.start)) {
        flag(ViolationKind::kProfileMalformed, r.id, 0, *why);
        continue;
      }
      // The profile's integral IS the transferred volume; a mismatch means
      // the engine either starved or over-served the request.
      const double carried = a.profile.carried().to_bytes();
      const double vol = r.volume.to_bytes();
      if (!approx_eq(carried, vol, 64.0, 1e-9)) {
        std::array<char, 96> buf{};
        std::snprintf(buf.data(), buf.size(), "carried %.3f B != vol %.3f B", carried,
                      vol);
        flag(ViolationKind::kProfileVolumeMismatch, r.id, 0, buf.data());
      }
    }
    if (!approx_le(r.release, a.start)) {
      std::array<char, 96> buf{};
      std::snprintf(buf.data(), buf.size(), "sigma=%.6fs < ts=%.6fs",
                    a.start.to_seconds(), r.release.to_seconds());
      flag(ViolationKind::kStartBeforeRelease, r.id, 0, buf.data());
    }
    const TimePoint end = a.end(r);
    if (!approx_le(end, r.deadline)) {
      std::array<char, 96> buf{};
      std::snprintf(buf.data(), buf.size(), "tau=%.6fs > tf=%.6fs", end.to_seconds(),
                    r.deadline.to_seconds());
      flag(ViolationKind::kEndAfterDeadline, r.id, 0, buf.data());
    }
    // Profiled assignments: the floor binds every step (the malleability
    // contract — reshapes never drop a flow below its guarantee) and the
    // MaxRate cap binds the peak step.
    const Bandwidth floor_rate = a.is_profiled() ? a.profile.min_rate() : a.bw;
    const Bandwidth peak_rate = a.is_profiled() ? a.profile.peak_rate() : a.bw;
    if (options.min_rate_guarantee > 0.0) {
      const Bandwidth required_floor =
          max(r.max_rate * options.min_rate_guarantee, r.min_rate_from(a.start));
      if (!approx_le(required_floor, floor_rate)) {
        flag(ViolationKind::kBelowGuaranteedFloor, r.id, 0,
             "guaranteed floor " + gridbw::to_string(required_floor) + " not met by " +
                 gridbw::to_string(floor_rate));
      }
    }
    if (!approx_le(peak_rate, r.max_rate)) {
      flag(ViolationKind::kRateAboveMax, r.id, 0,
           gridbw::to_string(peak_rate) + " > MaxRate " + gridbw::to_string(r.max_rate));
    }

    // A port outside the network has no profile; charging it would land on
    // another port's (or past the end), so name it and skip the charge.
    if (r.ingress.value >= in_count || r.egress.value >= out_count) {
      const bool bad_ingress = r.ingress.value >= in_count;
      const std::size_t bad = bad_ingress ? r.ingress.value : r.egress.value;
      flag(ViolationKind::kUnknownPort, r.id, bad,
           std::string{bad_ingress ? "ingress " : "egress "} + std::to_string(bad) +
               " not in the network (" +
               std::to_string(bad_ingress ? in_count : out_count) + " ports)");
      continue;
    }
    // Charge the load one constant-rate segment at a time. Constant
    // assignments emit the exact single segment the pre-profile code added,
    // so constant-only schedules keep bit-identical port peaks.
    a.for_each_segment(r, [&](TimePoint t0, TimePoint t1, Bandwidth rate) {
      const double bw = rate.to_bytes_per_second();
      profiles[r.ingress.value].add(t0, t1, bw);
      profiles[in_count + r.egress.value].add(t0, t1, bw);
    });
  }

  // Pass 2: per-port capacity checks, ingress ports in ascending order,
  // then egress ports.
  for (std::size_t p = 0; p < port_count; ++p) {
    const bool ingress = p < in_count;
    const Bandwidth capacity = ingress ? network.ingress_capacity(IngressId{p})
                                       : network.egress_capacity(EgressId{p - in_count});
    const auto peak = Bandwidth::bytes_per_second(profiles[p].global_max());
    if (approx_le(peak, capacity)) continue;
    flag(ingress ? ViolationKind::kIngressOverCapacity : ViolationKind::kEgressOverCapacity,
         0, ingress ? p : p - in_count,
         "peak " + gridbw::to_string(peak) + " > capacity " + gridbw::to_string(capacity));
  }

  if (options.observer != nullptr) {
    options.observer->count(obs::Counter::kValidatorRuns);
    options.observer->count(obs::Counter::kValidatorAssignments, assignments.size());
    options.observer->count(obs::Counter::kValidatorViolations,
                            report.violations.size());
  }
  return report;
}

ValidationReport validate_schedule(const Network& network,
                                   std::span<const Request> requests,
                                   const Schedule& schedule,
                                   const ValidateOptions& options) {
  return validate_assignments(network, requests, schedule.assignments(), options);
}

ValidationReport validate_schedule(const Network& network,
                                   std::span<const Request> requests,
                                   const Schedule& schedule,
                                   double min_rate_guarantee) {
  ValidateOptions options;
  options.min_rate_guarantee = min_rate_guarantee;
  return validate_schedule(network, requests, schedule, options);
}

}  // namespace gridbw
