// Determinism: every scheduler is a pure function of (network, requests,
// options) — two runs over the same inputs produce byte-identical
// schedules. This is a load-bearing property for the experiment harness
// (replications must be reproducible) and for debugging.

#include <gtest/gtest.h>

#include <vector>

#include "heuristics/distributed.hpp"
#include "heuristics/flexible_window.hpp"
#include "heuristics/flexible_bookahead.hpp"
#include "heuristics/parse.hpp"
#include "heuristics/registry.hpp"
#include "heuristics/retry.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace gridbw {
namespace {

/// Canonical fingerprint of a schedule result.
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

class SchedulerDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(SchedulerDeterminism, TwoRunsAreByteIdentical) {
  const workload::Scenario scenario =
      workload::paper_flexible(Duration::seconds(1), Duration::seconds(300), 4.0);
  Rng rng{801};
  const auto requests = workload::generate(scenario.spec, rng);

  const auto scheduler = heuristics::parse_scheduler(GetParam());
  const auto first = scheduler.run(scenario.network, requests);
  const auto second = scheduler.run(scenario.network, requests);
  EXPECT_EQ(fingerprint(first), fingerprint(second)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, SchedulerDeterminism,
                         ::testing::Values("fcfs", "cumulated", "minbw", "minvol",
                                           "greedy:f=1", "greedy:minrate",
                                           "window:step=100,f=0.8",
                                           "window:step=100,minrate,hotspot=1",
                                           "bookahead:step=100,ahead=4,f=1"));

TEST(SchedulerDeterminism, InputOrderDoesNotMatter) {
  // Heuristics sort internally (FCFS order with full tie-breaking), so a
  // shuffled request vector must give the same outcome.
  const workload::Scenario scenario =
      workload::paper_flexible(Duration::seconds(1), Duration::seconds(300), 4.0);
  Rng rng{802};
  auto requests = workload::generate(scenario.spec, rng);
  auto shuffled = requests;
  rng.shuffle(shuffled);

  for (const char* spec : {"greedy:f=1", "window:step=100,f=0.8", "minbw"}) {
    const auto scheduler = heuristics::parse_scheduler(spec);
    const auto a = scheduler.run(scenario.network, requests);
    const auto b = scheduler.run(scenario.network, shuffled);
    EXPECT_EQ(fingerprint(a), fingerprint(b)) << spec;
  }
}

TEST(SchedulerDeterminism, RetryAndDistributedAreDeterministic) {
  const workload::Scenario scenario =
      workload::paper_flexible(Duration::seconds(1), Duration::seconds(300), 4.0);
  Rng rng{803};
  const auto requests = workload::generate(scenario.spec, rng);

  heuristics::RetryPolicy retry;
  retry.max_attempts = 3;
  const auto r1 = heuristics::schedule_greedy_with_retries(
      scenario.network, requests, heuristics::BandwidthPolicy::fraction_of_max(1.0),
      retry);
  const auto r2 = heuristics::schedule_greedy_with_retries(
      scenario.network, requests, heuristics::BandwidthPolicy::fraction_of_max(1.0),
      retry);
  EXPECT_EQ(fingerprint(r1.result), fingerprint(r2.result));

  heuristics::DistributedOptions dist;
  dist.sync_period = Duration::seconds(30);
  const auto d1 =
      heuristics::schedule_flexible_distributed(scenario.network, requests, dist);
  const auto d2 =
      heuristics::schedule_flexible_distributed(scenario.network, requests, dist);
  EXPECT_EQ(fingerprint(d1.result), fingerprint(d2.result));
  EXPECT_EQ(d1.egress_conflicts, d2.egress_conflicts);
}

TEST(WindowTieBreak, NearEqualCostsBreakTiesByRequestId) {
  // Two candidates whose costs differ only at the 1e-12 relative level
  // contend for an egress that fits one of them. An exact `<` comparison
  // would let the infinitesimally cheaper (higher-id) candidate win or lose
  // depending on rounding; the epsilon-aware tie-break must deterministically
  // pick the smaller request id — in window and in mwindow, which share the
  // selection drain.
  const Bandwidth out_cap = Bandwidth::megabytes_per_second(100);
  const Bandwidth in_cap = Bandwidth::megabytes_per_second(99);
  // Request 2's ingress is a hair *larger*, so its cost is a hair *smaller*:
  // exact comparison would prefer id 2; the tie-break must prefer id 1.
  const Bandwidth in_cap_eps =
      Bandwidth::bytes_per_second(in_cap.to_bytes_per_second() * (1.0 + 1e-12));
  const Network net{{in_cap, in_cap_eps}, {out_cap}};

  std::vector<Request> rs;
  for (RequestId id : {RequestId{1}, RequestId{2}}) {
    rs.push_back(RequestBuilder{id}
                     .from(IngressId{id - 1})
                     .to(EgressId{0})
                     .window(TimePoint::at_seconds(0), TimePoint::at_seconds(1000))
                     .volume(Volume::megabytes(60))
                     .max_rate(Bandwidth::megabytes_per_second(60))
                     .build());
  }

  heuristics::WindowOptions opt;
  opt.step = Duration::seconds(10);
  opt.policy = heuristics::BandwidthPolicy::fraction_of_max(1.0);
  heuristics::MalleableOptions mopt;
  mopt.step = opt.step;
  mopt.policy = opt.policy;
  mopt.reshape = false;
  for (const heuristics::NamedScheduler& engine :
       {heuristics::make_window(opt), heuristics::make_malleable_window(mopt)}) {
    const auto result = engine.run(net, rs);
    EXPECT_TRUE(result.schedule.is_accepted(1)) << engine.name;
    EXPECT_FALSE(result.schedule.is_accepted(2)) << engine.name;
  }
}

TEST(WindowOrders, AllOrdersProduceValidDistinctNames) {
  using heuristics::CandidateOrder;
  EXPECT_EQ(to_string(CandidateOrder::kMinCost), "mincost");
  EXPECT_EQ(to_string(CandidateOrder::kEarliestDeadline), "edf");
  EXPECT_EQ(to_string(CandidateOrder::kShortestJob), "sjf");
}

TEST(WindowOrders, EdfSavesTheUrgentRequest) {
  // Two candidates, one port slot: EDF must pick the tight deadline even
  // though the loose one has lower utilization cost.
  const Network net = Network::uniform(2, 1, Bandwidth::megabytes_per_second(100));
  std::vector<Request> rs;
  // Tight: large bw (cost higher), deadline soon after the decision time.
  rs.push_back(RequestBuilder{1}
                   .from(IngressId{0})
                   .to(EgressId{0})
                   .window(TimePoint::at_seconds(0), TimePoint::at_seconds(25))
                   .volume(Volume::megabytes(100) * 10.0)
                   .max_rate(Bandwidth::megabytes_per_second(100))
                   .build());
  // Loose: small bw, deadline far away.
  rs.push_back(RequestBuilder{2}
                   .from(IngressId{1})
                   .to(EgressId{0})
                   .window(TimePoint::at_seconds(0), TimePoint::at_seconds(1000))
                   .volume(Volume::megabytes(60) * 10.0)
                   .max_rate(Bandwidth::megabytes_per_second(60))
                   .build());
  heuristics::WindowOptions opt;
  opt.step = Duration::seconds(5);
  opt.policy = heuristics::BandwidthPolicy::fraction_of_max(1.0);

  opt.order = heuristics::CandidateOrder::kMinCost;
  const auto mincost = heuristics::schedule_flexible_window(net, rs, opt);
  EXPECT_TRUE(mincost.schedule.is_accepted(2));   // cheaper candidate
  EXPECT_FALSE(mincost.schedule.is_accepted(1));  // 100+60 > 100 on egress

  opt.order = heuristics::CandidateOrder::kEarliestDeadline;
  const auto edf = heuristics::schedule_flexible_window(net, rs, opt);
  EXPECT_TRUE(edf.schedule.is_accepted(1));
  EXPECT_FALSE(edf.schedule.is_accepted(2));
}

}  // namespace
}  // namespace gridbw
