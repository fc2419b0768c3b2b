// Differential proof for the validator's capacity pass. The validator
// charges accepted loads into flat TimelineProfiles; the oracle here
// recharges the same loads into one std::map-backed StepFunction per port
// and derives the capacity violations from its peaks. Their reports must
// agree byte for byte on randomized 10k-request workloads across several
// seeds, with injected per-request faults, a guarantee floor and duplicate
// assignments.

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "support/step_function.hpp"
#include "core/validate.hpp"
#include "workload/generator.hpp"
#include "workload/load.hpp"
#include "workload/scenario.hpp"

namespace gridbw {
namespace {

constexpr std::uint64_t kSeeds[] = {11, 4242, 987654321};

struct BigWorkload {
  workload::Scenario scenario;
  std::vector<Request> requests;
};

BigWorkload big_workload(std::uint64_t seed, std::size_t count) {
  workload::Scenario scenario =
      workload::paper_flexible(Duration::seconds(1), Duration::seconds(1), 4.0);
  scenario.spec.mean_interarrival =
      workload::interarrival_for_load(scenario.spec, scenario.network, 3.0);
  scenario.spec.horizon =
      scenario.spec.mean_interarrival * static_cast<double>(count);
  Rng rng{seed};
  auto requests = workload::generate(scenario.spec, rng);
  if (requests.size() > count) requests.resize(count);
  return BigWorkload{std::move(scenario), std::move(requests)};
}

/// Accept-all schedule at MinRate, with a sprinkling of deliberate
/// per-request violations so the reports are non-trivial.
std::vector<Assignment> assignments_with_faults(std::span<const Request> requests) {
  std::vector<Assignment> assignments;
  assignments.reserve(requests.size());
  for (std::size_t k = 0; k < requests.size(); ++k) {
    const Request& r = requests[k];
    Assignment a{r.id, r.release, r.min_rate()};
    if (k % 97 == 13) a.start = r.release - Duration::seconds(5);   // too early
    if (k % 131 == 7) a.bw = r.max_rate * 1.5;                      // above MaxRate
    if (k % 173 == 11) a.bw = Bandwidth::zero();                    // non-positive
    assignments.push_back(a);
  }
  return assignments;
}

bool is_capacity(ViolationKind kind) {
  return kind == ViolationKind::kIngressOverCapacity ||
         kind == ViolationKind::kEgressOverCapacity;
}

/// The capacity violations the validator must report, from StepFunction
/// peaks. An assignment is charged unless the validator skips it: unknown
/// request, repeated id, non-positive rate, malformed profile, or a port
/// outside the network.
std::vector<Violation> step_function_capacity_violations(
    const Network& network, std::span<const Request> requests,
    std::span<const Assignment> assignments) {
  std::unordered_map<RequestId, const Request*> by_id;
  for (const Request& r : requests) by_id.emplace(r.id, &r);
  const std::size_t in_count = network.ingress_count();
  const std::size_t out_count = network.egress_count();
  std::vector<StepFunction> loads(in_count + out_count);
  std::unordered_set<RequestId> seen;
  for (const Assignment& a : assignments) {
    const auto it = by_id.find(a.request);
    if (it == by_id.end() || !seen.insert(a.request).second) continue;
    const Request& r = *it->second;
    if (!a.bw.is_positive() || (a.is_profiled() && a.profile.defect(a.start))) continue;
    if (r.ingress.value >= in_count || r.egress.value >= out_count) continue;
    a.for_each_segment(r, [&](TimePoint t0, TimePoint t1, Bandwidth rate) {
      loads[r.ingress.value].add(t0, t1, rate.to_bytes_per_second());
      loads[in_count + r.egress.value].add(t0, t1, rate.to_bytes_per_second());
    });
  }
  std::vector<Violation> expected;
  for (std::size_t p = 0; p < loads.size(); ++p) {
    const bool ingress = p < in_count;
    const Bandwidth capacity = ingress ? network.ingress_capacity(IngressId{p})
                                       : network.egress_capacity(EgressId{p - in_count});
    const auto peak = Bandwidth::bytes_per_second(loads[p].global_max());
    if (approx_le(peak, capacity)) continue;
    expected.push_back(Violation{
        ingress ? ViolationKind::kIngressOverCapacity : ViolationKind::kEgressOverCapacity,
        0, ingress ? p : p - in_count,
        "peak " + to_string(peak) + " > capacity " + to_string(capacity)});
  }
  return expected;
}

/// The report's capacity violations come after every per-request one and
/// equal the oracle's, field for field.
void expect_capacity_matches_oracle(const ValidationReport& report,
                                    const std::vector<Violation>& expected,
                                    const std::string& label) {
  std::size_t first = 0;
  while (first < report.violations.size() && !is_capacity(report.violations[first].kind)) {
    ++first;
  }
  ASSERT_EQ(report.violations.size() - first, expected.size()) << label;
  for (std::size_t k = 0; k < expected.size(); ++k) {
    const Violation& got = report.violations[first + k];
    EXPECT_EQ(got.kind, expected[k].kind) << label << " #" << k;
    EXPECT_EQ(got.request, expected[k].request) << label << " #" << k;
    EXPECT_EQ(got.port, expected[k].port) << label << " #" << k;
    EXPECT_EQ(got.detail, expected[k].detail) << label << " #" << k;
  }
}

void expect_same_report(const ValidationReport& a, const ValidationReport& b,
                        const std::string& label) {
  ASSERT_EQ(a.violations.size(), b.violations.size()) << label;
  for (std::size_t k = 0; k < a.violations.size(); ++k) {
    EXPECT_EQ(a.violations[k].kind, b.violations[k].kind) << label << " #" << k;
    EXPECT_EQ(a.violations[k].request, b.violations[k].request) << label << " #" << k;
    EXPECT_EQ(a.violations[k].port, b.violations[k].port) << label << " #" << k;
    EXPECT_EQ(a.violations[k].detail, b.violations[k].detail) << label << " #" << k;
  }
}

TEST(ValidateEngines, IdenticalReportsOnRandomized10kWorkloads) {
  for (const std::uint64_t seed : kSeeds) {
    const auto [scenario, requests] = big_workload(seed, 10000);
    ASSERT_GT(requests.size(), 5000u);
    const auto assignments = assignments_with_faults(requests);
    const auto report =
        validate_assignments(scenario.network, requests, assignments, ValidateOptions{});
    const auto expected =
        step_function_capacity_violations(scenario.network, requests, assignments);

    // The overloaded accept-all schedule must actually trip both port sides.
    bool ingress = false;
    bool egress = false;
    for (const Violation& v : expected) {
      ingress |= v.kind == ViolationKind::kIngressOverCapacity;
      egress |= v.kind == ViolationKind::kEgressOverCapacity;
    }
    EXPECT_TRUE(ingress && egress) << "seed=" << seed;
    expect_capacity_matches_oracle(report, expected, "seed=" + std::to_string(seed));
  }
}

TEST(ValidateEngines, IdenticalReportsWithGuaranteeFloor) {
  const auto [scenario, requests] = big_workload(kSeeds[0], 10000);
  const auto assignments = assignments_with_faults(requests);
  ValidateOptions options;
  options.min_rate_guarantee = 0.5;
  const auto report = validate_assignments(scenario.network, requests, assignments, options);
  std::size_t floors = 0;
  for (const Violation& v : report.violations) {
    floors += v.kind == ViolationKind::kBelowGuaranteedFloor ? 1 : 0;
  }
  EXPECT_GT(floors, 0u);
  expect_capacity_matches_oracle(
      report, step_function_capacity_violations(scenario.network, requests, assignments),
      "guarantee-floor");
}

TEST(ValidateEngines, ScheduleOverloadAgreesWithAssignmentSpan) {
  const auto [scenario, requests] = big_workload(kSeeds[2], 2000);
  Schedule schedule;
  for (const Request& r : requests) schedule.accept(r.id, r.release, r.min_rate());
  const auto via_schedule =
      validate_schedule(scenario.network, requests, schedule, ValidateOptions{});
  const auto via_span = validate_assignments(scenario.network, requests,
                                             schedule.assignments(), ValidateOptions{});
  expect_same_report(via_schedule, via_span, "schedule-vs-span");
  expect_capacity_matches_oracle(
      via_span,
      step_function_capacity_violations(scenario.network, requests,
                                        schedule.assignments()),
      "schedule");
}

TEST(ValidateEngines, DuplicateAssignmentsFlaggedIdenticallyByAllEngines) {
  const auto [scenario, requests] = big_workload(kSeeds[0], 2000);
  auto assignments = assignments_with_faults(requests);
  // Duplicate every 211th assignment (same id, different placement).
  const std::size_t original = assignments.size();
  for (std::size_t k = 0; k < original; k += 211) {
    Assignment copy = assignments[k];
    copy.start += Duration::seconds(1);
    assignments.push_back(copy);
  }
  const auto report =
      validate_assignments(scenario.network, requests, assignments, ValidateOptions{});
  std::size_t duplicates = 0;
  for (const auto& v : report.violations) {
    duplicates += v.kind == ViolationKind::kDuplicateAssignment ? 1 : 0;
  }
  EXPECT_EQ(duplicates, (original + 210) / 211);
  expect_capacity_matches_oracle(
      report, step_function_capacity_violations(scenario.network, requests, assignments),
      "duplicates");
}

}  // namespace
}  // namespace gridbw
