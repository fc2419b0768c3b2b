// Differential proof that the fast admission engines are byte-identical to
// their paper-literal references, on randomized workloads:
//
//   rigid *-SLOTS:  SlotsEngine::kIncremental vs kRebuild, all 3 SlotCosts
//   WINDOW:         WindowEngine::kHeap vs kScan, all orders + hotspot
//
// (ISSUE acceptance criterion: schedules must match exactly, several seeds.)

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "heuristics/flexible_window.hpp"
#include "heuristics/rigid_slots.hpp"
#include "obs/counters.hpp"
#include "obs/observer.hpp"
#include "obs/trace_sink.hpp"
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

    opt.engine = heuristics::WindowEngine::kScan;
    const auto reference =
        heuristics::schedule_flexible_window(scenario.network, requests, opt);
    opt.engine = heuristics::WindowEngine::kHeap;
    const auto fast =
        heuristics::schedule_flexible_window(scenario.network, requests, opt);
    EXPECT_EQ(fingerprint(reference), fingerprint(fast))
        << to_string(param.order) << " hotspot=" << param.hotspot
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

TEST_P(WindowEngineDifferential, AutoMatchesScanOnRandomWorkloads) {
  // kAuto flips between scan and heap per interval at the break-even batch
  // size; both legs are decision-identical, so the crossover must be
  // invisible in the schedule. The dense scenario pushes batches above the
  // threshold, the sparse one keeps them below, so both legs execute.
  const auto param = GetParam();
  for (const std::uint64_t seed : kSeeds) {
    for (const double interarrival : {0.1, 2.0}) {
      const workload::Scenario scenario = workload::paper_flexible(
          Duration::seconds(interarrival), Duration::seconds(600), 4.0);
      Rng rng{seed};
      const auto requests = workload::generate(scenario.spec, rng);

      heuristics::WindowOptions opt;
      opt.step = Duration::seconds(50);
      opt.policy = heuristics::BandwidthPolicy::fraction_of_max(0.8);
      opt.order = param.order;
      opt.hotspot_weight = param.hotspot;

      opt.engine = heuristics::WindowEngine::kScan;
      const auto reference =
          heuristics::schedule_flexible_window(scenario.network, requests, opt);
      opt.engine = heuristics::WindowEngine::kAuto;
      const auto fast =
          heuristics::schedule_flexible_window(scenario.network, requests, opt);
      EXPECT_EQ(fingerprint(reference), fingerprint(fast))
          << to_string(param.order) << " hotspot=" << param.hotspot
          << " seed=" << seed << " interarrival=" << interarrival;
    }
  }
}

TEST(WindowEngineDifferential, AutoTieAtBreakEvenBatchPicksTheHeap) {
  // kAuto resolves `candidates.size() < kHeapBreakEvenBatch(16) ? scan : heap`
  // per interval. The tie at exactly 16 candidates must land on the heap, and
  // 15 on the scan — pinned through the per-drain engine counters so a future
  // `<=` / off-by-one edit trips this test rather than silently flipping the
  // engine at the break-even point.
  const Network net = Network::uniform(2, 2, Bandwidth::megabytes_per_second(1000));
  const auto flow = [](RequestId id) {
    Request r;
    r.id = id;
    r.ingress = IngressId{static_cast<std::size_t>(id % 2)};
    r.egress = EgressId{static_cast<std::size_t>(id % 2)};
    r.release = TimePoint::origin();
    r.deadline = TimePoint::at_seconds(100);
    r.volume = Volume::megabytes(10);
    r.max_rate = Bandwidth::megabytes_per_second(10);
    return r;
  };
  for (const std::size_t batch : {std::size_t{15}, std::size_t{16}}) {
    std::vector<Request> requests;
    for (std::size_t k = 1; k <= batch; ++k) requests.push_back(flow(RequestId{k}));

    heuristics::WindowOptions opt;
    opt.step = Duration::seconds(50);
    opt.engine = heuristics::WindowEngine::kAuto;
    obs::MemorySink sink;
    obs::CounterRegistry counters;
    obs::Observer observer{&sink, &counters};
    const auto result =
        heuristics::schedule_flexible_window(net, requests, opt, &observer);

    // Every request fits comfortably, so the whole batch drains in the first
    // (and only) non-empty interval.
    EXPECT_EQ(result.schedule.assignments().size(), batch);
    const std::uint64_t scans = counters.value(obs::Counter::kWindowScanDrains);
    const std::uint64_t heaps = counters.value(obs::Counter::kWindowHeapDrains);
    if (batch == 16) {
      EXPECT_EQ(scans, 0u) << "tie at break-even must not pick the scan";
      EXPECT_EQ(heaps, 1u);
    } else {
      EXPECT_EQ(scans, 1u);
      EXPECT_EQ(heaps, 0u) << "below break-even must stay on the scan";
    }
  }
}

TEST(WindowEngineDifferential, MinRatePolicyAlsoMatches) {
  const workload::Scenario scenario =
      workload::paper_flexible(Duration::seconds(1), Duration::seconds(400), 4.0);
  Rng rng{31};
  const auto requests = workload::generate(scenario.spec, rng);
  heuristics::WindowOptions opt;
  opt.step = Duration::seconds(100);
  opt.policy = heuristics::BandwidthPolicy::min_rate();
  opt.engine = heuristics::WindowEngine::kScan;
  const auto reference =
      heuristics::schedule_flexible_window(scenario.network, requests, opt);
  opt.engine = heuristics::WindowEngine::kHeap;
  const auto fast =
      heuristics::schedule_flexible_window(scenario.network, requests, opt);
  EXPECT_EQ(fingerprint(reference), fingerprint(fast));
}

}  // namespace
}  // namespace gridbw
