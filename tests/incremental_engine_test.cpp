// Differential proof that the fast admission engines are byte-identical to
// their paper-literal references, on randomized workloads:
//
//   rigid *-SLOTS:  SlotsEngine::kIncremental vs kRebuild, all 3 SlotCosts
//   WINDOW:         the shared heap drain (window, and mwindow with
//                   reshaping off) vs the test-support scan, all orders +
//                   hotspot
//
// (ISSUE acceptance criterion: schedules must match exactly, several seeds.)

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "heuristics/flexible_window.hpp"
#include "heuristics/malleable.hpp"
#include "heuristics/rigid_slots.hpp"
#include "support/window_scan.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace gridbw {
namespace {

/// Canonical fingerprint of a schedule result (same shape as
/// determinism_test.cpp): accepted (id, start, bw) triples plus rejections.
std::vector<std::tuple<RequestId, double, double>> fingerprint(
    const ScheduleResult& result) {
  std::vector<std::tuple<RequestId, double, double>> out;
  for (const Assignment& a : result.schedule.assignments()) {
    out.emplace_back(a.request, a.start.to_seconds(), a.bw.to_bytes_per_second());
  }
  std::sort(out.begin(), out.end());
  auto rejected = result.rejected;
  std::sort(rejected.begin(), rejected.end());
  for (RequestId id : rejected) out.emplace_back(id, -1.0, -1.0);
  return out;
}

constexpr std::uint64_t kSeeds[] = {11, 4242, 987654321};

class SlotsEngineDifferential
    : public ::testing::TestWithParam<heuristics::SlotCost> {};

TEST_P(SlotsEngineDifferential, IncrementalMatchesRebuildOnRandomWorkloads) {
  const auto cost = GetParam();
  for (const std::uint64_t seed : kSeeds) {
    const workload::Scenario scenario =
        workload::paper_rigid(Duration::seconds(1), Duration::seconds(800));
    Rng rng{seed};
    const auto requests = workload::generate(scenario.spec, rng);
    ASSERT_GT(requests.size(), 50u);

    heuristics::SlotsTelemetry rebuild_tm, incremental_tm;
    const auto reference = heuristics::schedule_rigid_slots(
        scenario.network, requests, cost, heuristics::SlotsEngine::kRebuild,
        &rebuild_tm);
    const auto fast = heuristics::schedule_rigid_slots(
        scenario.network, requests, cost, heuristics::SlotsEngine::kIncremental,
        &incremental_tm);

    EXPECT_EQ(fingerprint(reference), fingerprint(fast))
        << to_string(cost) << " seed=" << seed;
    // Same slice structure, strictly less admission work.
    EXPECT_EQ(rebuild_tm.slices, incremental_tm.slices);
    EXPECT_EQ(rebuild_tm.skipped_slices, 0u);
    EXPECT_LE(incremental_tm.admission_checks, rebuild_tm.admission_checks);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSlotCosts, SlotsEngineDifferential,
                         ::testing::Values(heuristics::SlotCost::kCumulated,
                                           heuristics::SlotCost::kMinBandwidth,
                                           heuristics::SlotCost::kMinVolume));

TEST(SlotsEngineDifferential, DefaultOverloadIsTheIncrementalEngine) {
  const workload::Scenario scenario =
      workload::paper_rigid(Duration::seconds(1), Duration::seconds(400));
  Rng rng{5};
  const auto requests = workload::generate(scenario.spec, rng);
  const auto a = heuristics::schedule_rigid_slots(
      scenario.network, requests, heuristics::SlotCost::kMinBandwidth);
  const auto b = heuristics::schedule_rigid_slots(
      scenario.network, requests, heuristics::SlotCost::kMinBandwidth,
      heuristics::SlotsEngine::kIncremental);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(SlotsEngineDifferential, IncrementalSkipsQuietSlices) {
  // A sparse workload has long stretches with no arrivals/departures; the
  // incremental engine must skip those slices entirely.
  const workload::Scenario scenario =
      workload::paper_rigid(Duration::seconds(20), Duration::seconds(4000));
  Rng rng{77};
  const auto requests = workload::generate(scenario.spec, rng);
  heuristics::SlotsTelemetry tm;
  (void)heuristics::schedule_rigid_slots(scenario.network, requests,
                                         heuristics::SlotCost::kMinBandwidth,
                                         heuristics::SlotsEngine::kIncremental, &tm);
  EXPECT_GT(tm.slices, 0u);
  EXPECT_LT(tm.admission_checks,
            tm.slices * std::max<std::size_t>(requests.size(), 1));
}

// Pins the telemetry contract (ISSUE 6 satellite): admission_checks counts
// ledger probes ONLY, in every engine. A request whose min rate exceeds its
// own max_rate is short-circuited before the ledger in the rebuild sweep and
// precomputed as infeasible in the incremental sweeps — it must not be
// counted by either. On a single-slice workload (all requests share one
// window) every engine probes each rate-feasible request exactly once, so
// the counts are exactly predictable AND equal across engines.
TEST(AdmissionChecksContract, CountsLedgerProbesOnlyInEveryEngine) {
  const Network net = Network::uniform(2, 2, Bandwidth::megabytes_per_second(100));
  const auto shared_window = [](RequestId id, double mb_volume, double mb_cap) {
    Request r;
    r.id = id;
    r.ingress = IngressId{0};
    r.egress = EgressId{0};
    r.release = TimePoint::origin();
    r.deadline = TimePoint::at_seconds(10);
    r.volume = Volume::megabytes(mb_volume);
    r.max_rate = Bandwidth::megabytes_per_second(mb_cap);
    return r;
  };
  const std::vector<Request> requests = {
      shared_window(RequestId{1}, 300.0, 40.0),  // min rate 30 <= cap 40
      shared_window(RequestId{2}, 200.0, 30.0),  // min rate 20 <= cap 30
      // Infeasible rate: needs 50 MB/s but its own cap is 10. Never probed.
      shared_window(RequestId{3}, 500.0, 10.0),
      shared_window(RequestId{4}, 100.0, 20.0),  // min rate 10 <= cap 20
  };

  for (const auto cost : {heuristics::SlotCost::kCumulated,
                          heuristics::SlotCost::kMinBandwidth,
                          heuristics::SlotCost::kMinVolume}) {
    for (const auto engine :
         {heuristics::SlotsEngine::kRebuild, heuristics::SlotsEngine::kIncremental}) {
      heuristics::SlotsTelemetry tm;
      const auto result =
          heuristics::schedule_rigid_slots(net, requests, cost, engine, &tm);
      EXPECT_EQ(tm.admission_checks, 3u)
          << to_string(cost) << "/" << to_string(engine);
      // The infeasible-rate request is rejected, the three feasible ones
      // (60 MB/s total on port 0) are admitted.
      EXPECT_EQ(result.rejected.size(), 1u);
      EXPECT_EQ(result.schedule.assignments().size(), 3u);
    }
  }
}

struct WindowCase {
  heuristics::CandidateOrder order;
  // gtest prints this struct as its raw bytes and ctest names each case
  // after that print. An explicit zero field leaves no indeterminate
  // padding, so the case names are the same on every build and run.
  std::int32_t zero_padding = 0;
  double hotspot;
};
static_assert(sizeof(WindowCase) == sizeof(WindowCase::order) +
                                        sizeof(WindowCase::zero_padding) +
                                        sizeof(WindowCase::hotspot),
              "WindowCase must have no padding bytes");

/// The malleable WINDOW with reshaping off, configured like `opt`: it
/// admits through the same drain, so it must match the scan as well.
ScheduleResult rigid_malleable_window(const workload::Scenario& scenario,
                                      std::span<const Request> requests,
                                      const heuristics::WindowOptions& opt) {
  heuristics::MalleableOptions mopt;
  mopt.policy = opt.policy;
  mopt.reshape = false;
  mopt.step = opt.step;
  mopt.order = opt.order;
  mopt.hotspot_weight = opt.hotspot_weight;
  return heuristics::schedule_malleable_window(scenario.network, requests, mopt);
}

class WindowEngineDifferential : public ::testing::TestWithParam<WindowCase> {};

TEST_P(WindowEngineDifferential, HeapMatchesScanOnRandomWorkloads) {
  const auto param = GetParam();
  for (const std::uint64_t seed : kSeeds) {
    const workload::Scenario scenario = workload::paper_flexible(
        Duration::seconds(0.5), Duration::seconds(600), 4.0);
    Rng rng{seed};
    const auto requests = workload::generate(scenario.spec, rng);
    ASSERT_GT(requests.size(), 50u);

    heuristics::WindowOptions opt;
    opt.step = Duration::seconds(50);
    opt.policy = heuristics::BandwidthPolicy::fraction_of_max(0.8);
    opt.order = param.order;
    opt.hotspot_weight = param.hotspot;

    const auto reference = oracle::schedule_window_by_scan(scenario.network, requests, opt);
    const auto fast =
        heuristics::schedule_flexible_window(scenario.network, requests, opt);
    EXPECT_EQ(fingerprint(reference), fingerprint(fast))
        << to_string(param.order) << " hotspot=" << param.hotspot
        << " seed=" << seed;
    EXPECT_EQ(fingerprint(reference),
              fingerprint(rigid_malleable_window(scenario, requests, opt)))
        << "mwindow " << to_string(param.order) << " hotspot=" << param.hotspot
        << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOrders, WindowEngineDifferential,
    ::testing::Values(
        WindowCase{.order = heuristics::CandidateOrder::kMinCost, .hotspot = 0.0},
        WindowCase{.order = heuristics::CandidateOrder::kMinCost, .hotspot = 0.5},
        WindowCase{.order = heuristics::CandidateOrder::kEarliestDeadline,
                   .hotspot = 0.0},
        WindowCase{.order = heuristics::CandidateOrder::kShortestJob,
                   .hotspot = 0.0}));

TEST(WindowEngineDifferential, MinRatePolicyAlsoMatches) {
  const workload::Scenario scenario =
      workload::paper_flexible(Duration::seconds(1), Duration::seconds(400), 4.0);
  Rng rng{31};
  const auto requests = workload::generate(scenario.spec, rng);
  heuristics::WindowOptions opt;
  opt.step = Duration::seconds(100);
  opt.policy = heuristics::BandwidthPolicy::min_rate();
  const auto reference = oracle::schedule_window_by_scan(scenario.network, requests, opt);
  const auto fast =
      heuristics::schedule_flexible_window(scenario.network, requests, opt);
  EXPECT_EQ(fingerprint(reference), fingerprint(fast));
  EXPECT_EQ(fingerprint(reference),
            fingerprint(rigid_malleable_window(scenario, requests, opt)));
}

}  // namespace
}  // namespace gridbw
