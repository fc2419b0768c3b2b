// MICRO — google-benchmark microbenchmarks of the scheduling kernels:
// decisions per second for each heuristic as the request count grows, plus
// the primitive operations they lean on (StepFunction updates/queries,
// max-min allocation rounds).

#include <benchmark/benchmark.h>

#include <vector>

#include "support/step_function.hpp"
#include "core/timeline_profile.hpp"
#include "heuristics/flexible_greedy.hpp"
#include "heuristics/flexible_window.hpp"
#include "heuristics/rigid_fcfs.hpp"
#include "heuristics/rigid_slots.hpp"
#include "heuristics/water_fill.hpp"
#include "workload/generator.hpp"
#include "workload/load.hpp"
#include "workload/scenario.hpp"

namespace gridbw {
namespace {

std::vector<Request> workload_of(std::size_t count, bool rigid) {
  workload::Scenario scenario =
      rigid ? workload::paper_rigid(Duration::seconds(1), Duration::seconds(1))
            : workload::paper_flexible(Duration::seconds(1), Duration::seconds(1), 4.0);
  scenario.spec.mean_interarrival =
      workload::interarrival_for_load(scenario.spec, scenario.network, 3.0);
  scenario.spec.horizon =
      scenario.spec.mean_interarrival * static_cast<double>(count);
  Rng rng{1234};
  auto requests = workload::generate(scenario.spec, rng);
  requests.resize(std::min(requests.size(), count));
  return requests;
}

const Network& paper_network() {
  static const Network net =
      Network::uniform(10, 10, Bandwidth::gigabytes_per_second(1));
  return net;
}

void BM_RigidFcfs(benchmark::State& state) {
  const auto requests = workload_of(static_cast<std::size_t>(state.range(0)), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(heuristics::schedule_rigid_fcfs(paper_network(), requests));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(requests.size()));
}
BENCHMARK(BM_RigidFcfs)->Arg(100)->Arg(500)->Arg(2000);

void BM_RigidSlotsCumulated(benchmark::State& state) {
  const auto requests = workload_of(static_cast<std::size_t>(state.range(0)), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(heuristics::schedule_rigid_slots(
        paper_network(), requests, heuristics::SlotCost::kCumulated));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(requests.size()));
}
BENCHMARK(BM_RigidSlotsCumulated)->Arg(100)->Arg(500)->Arg(2000);

void BM_FlexibleGreedy(benchmark::State& state) {
  const auto requests = workload_of(static_cast<std::size_t>(state.range(0)), false);
  const auto policy = heuristics::BandwidthPolicy::fraction_of_max(1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        heuristics::schedule_flexible_greedy(paper_network(), requests, policy));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(requests.size()));
}
BENCHMARK(BM_FlexibleGreedy)->Arg(100)->Arg(1000)->Arg(5000);

void BM_FlexibleWindow(benchmark::State& state) {
  const auto requests = workload_of(static_cast<std::size_t>(state.range(0)), false);
  heuristics::WindowOptions opt;
  opt.step = Duration::seconds(100);
  opt.policy = heuristics::BandwidthPolicy::fraction_of_max(1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        heuristics::schedule_flexible_window(paper_network(), requests, opt));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(requests.size()));
}
BENCHMARK(BM_FlexibleWindow)->Arg(100)->Arg(1000)->Arg(5000);

void BM_StepFunctionAddQuery(benchmark::State& state) {
  const auto spans = static_cast<std::size_t>(state.range(0));
  Rng rng{7};
  std::vector<std::pair<double, double>> intervals;
  for (std::size_t k = 0; k < spans; ++k) {
    const double lo = rng.uniform(0, 1000);
    intervals.emplace_back(lo, lo + rng.uniform(1, 50));
  }
  for (auto _ : state) {
    StepFunction f;
    for (const auto& [lo, hi] : intervals) {
      f.add(TimePoint::at_seconds(lo), TimePoint::at_seconds(hi), 1.0);
    }
    benchmark::DoNotOptimize(
        f.max_over(TimePoint::at_seconds(200), TimePoint::at_seconds(800)));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(spans));
}
BENCHMARK(BM_StepFunctionAddQuery)->Arg(64)->Arg(512)->Arg(4096);

void BM_TimelineProfileAddQuery(benchmark::State& state) {
  const auto spans = static_cast<std::size_t>(state.range(0));
  Rng rng{7};
  std::vector<std::pair<double, double>> intervals;
  for (std::size_t k = 0; k < spans; ++k) {
    const double lo = rng.uniform(0, 1000);
    intervals.emplace_back(lo, lo + rng.uniform(1, 50));
  }
  for (auto _ : state) {
    TimelineProfile f;
    f.reserve(spans);
    for (const auto& [lo, hi] : intervals) {
      f.add(TimePoint::at_seconds(lo), TimePoint::at_seconds(hi), 1.0);
    }
    benchmark::DoNotOptimize(
        f.max_over(TimePoint::at_seconds(200), TimePoint::at_seconds(800)));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(spans));
}
BENCHMARK(BM_TimelineProfileAddQuery)->Arg(64)->Arg(512)->Arg(4096);

// Online admission's cycle on one port, which BM_TimelineProfileAddQuery's
// build-once/query-once shape cannot see: one add at the live tail of a
// profile holding `resident` breakpoints of history, then one max_over the
// added window (a NetworkLedger reserve followed by the next fits). The
// profile is reset to its history every 64 cycles, outside the timing, so
// it holds between `resident` and `resident` + 128 breakpoints throughout.
void BM_TimelineProfileInterleaved(benchmark::State& state) {
  const auto resident = static_cast<std::size_t>(state.range(0));
  constexpr int kCyclesPerReset = 64;
  TimelineProfile history;
  for (std::size_t k = 0; k < resident / 2; ++k) {
    const double lo = static_cast<double>(k);
    history.add(TimePoint::at_seconds(lo), TimePoint::at_seconds(lo + 1.5), 1.0);
  }
  history.ensure_merged();
  // Quarter-second steps from just inside the tail: some endpoints land on
  // resident instants, most are new.
  const double tail = static_cast<double>(resident / 2) - 4.0;
  TimelineProfile f = history;
  int cycle = 0;
  for (auto _ : state) {
    if (cycle == kCyclesPerReset) {
      state.PauseTiming();
      f = history;
      cycle = 0;
      state.ResumeTiming();
    }
    const TimePoint t0 = TimePoint::at_seconds(tail + 0.25 * cycle++);
    const TimePoint t1 = t0 + Duration::seconds(3.0);
    f.add(t0, t1, 0.5);
    benchmark::DoNotOptimize(f.max_over(t0, t1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimelineProfileInterleaved)->Arg(64)->Arg(512)->Arg(4096);

void BM_MaxMinAllocation(benchmark::State& state) {
  // The fluid baseline's fill: guarantee 0, each flow capped by its MaxRate.
  const auto flows_count = static_cast<std::size_t>(state.range(0));
  Rng rng{8};
  std::vector<heuristics::FillFlow> flows;
  for (std::size_t k = 0; k < flows_count; ++k) {
    flows.push_back(heuristics::FillFlow{
        static_cast<std::size_t>(rng.uniform_int(0, 9)),
        static_cast<std::size_t>(rng.uniform_int(0, 9)), 0.0,
        Bandwidth::megabytes_per_second(rng.uniform(10, 1000)).to_bytes_per_second()});
  }
  const std::vector<double> in_capacity =
      heuristics::to_bytes_per_second(paper_network().ingress_capacities());
  const std::vector<double> out_capacity =
      heuristics::to_bytes_per_second(paper_network().egress_capacities());
  std::vector<double> rates;
  heuristics::FillScratch scratch;
  for (auto _ : state) {
    heuristics::water_fill(flows, in_capacity, out_capacity, rates, scratch);
    benchmark::DoNotOptimize(rates.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(flows_count));
}
BENCHMARK(BM_MaxMinAllocation)->Arg(16)->Arg(128)->Arg(1024);

}  // namespace
}  // namespace gridbw

BENCHMARK_MAIN();
