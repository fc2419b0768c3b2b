// Tests for the max-min fair-share fluid baseline and the hand-checkable
// allocations of the fill it runs on.

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "baseline/maxmin.hpp"
#include "heuristics/water_fill.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace gridbw::baseline {
namespace {

TimePoint at(double s) { return TimePoint::at_seconds(s); }
Bandwidth mbps(double m) { return Bandwidth::megabytes_per_second(m); }

// The fluid baseline's allocation: heuristics::water_fill from guarantee 0,
// each flow capped by its MaxRate, on the ports of `net`.
heuristics::FillFlow flow(std::size_t in, std::size_t out, Bandwidth max_rate) {
  return {in, out, 0.0, max_rate.to_bytes_per_second()};
}

std::vector<Bandwidth> maxmin_rates(const Network& net,
                                    std::span<const heuristics::FillFlow> flows) {
  std::vector<double> rates;
  heuristics::FillScratch scratch;
  heuristics::water_fill(flows, heuristics::to_bytes_per_second(net.ingress_capacities()),
                         heuristics::to_bytes_per_second(net.egress_capacities()), rates,
                         scratch);
  std::vector<Bandwidth> out;
  for (const double r : rates) out.push_back(Bandwidth::bytes_per_second(r));
  return out;
}

TEST(MaxMinAllocation, SingleFlowGetsItsHostRate) {
  const Network net = Network::uniform(1, 1, mbps(100));
  const std::vector flows{flow(0, 0, mbps(40))};
  const auto rates = maxmin_rates(net, flows);
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_NEAR(rates[0].to_megabytes_per_second(), 40.0, 1e-6);
}

TEST(MaxMinAllocation, EqualFlowsShareEqually) {
  const Network net = Network::uniform(1, 1, mbps(100));
  const std::vector flows{flow(0, 0, mbps(1000)), flow(0, 0, mbps(1000))};
  const auto rates = maxmin_rates(net, flows);
  EXPECT_NEAR(rates[0].to_megabytes_per_second(), 50.0, 1e-6);
  EXPECT_NEAR(rates[1].to_megabytes_per_second(), 50.0, 1e-6);
}

TEST(MaxMinAllocation, HostLimitedFlowReleasesShareToOthers) {
  const Network net = Network::uniform(1, 1, mbps(100));
  // Flow 0 capped at 20; flow 1 takes the remaining 80.
  const std::vector flows{flow(0, 0, mbps(20)), flow(0, 0, mbps(1000))};
  const auto rates = maxmin_rates(net, flows);
  EXPECT_NEAR(rates[0].to_megabytes_per_second(), 20.0, 1e-6);
  EXPECT_NEAR(rates[1].to_megabytes_per_second(), 80.0, 1e-6);
}

TEST(MaxMinAllocation, CrossBottlenecks) {
  // Classic max-min: flows A(in0->out0), B(in0->out1), C(in1->out1).
  // in0 splits A,B at 50; out1 then offers C 100-50=50... but C is also
  // unconstrained elsewhere, so progressive filling: all rise to 50
  // (in0 saturates), then C continues to 50 only if out1 allows: out1
  // carries B+C = 100 -> saturated at 50 each.
  const Network net = Network::uniform(2, 2, mbps(100));
  const std::vector flows{flow(0, 0, mbps(1000)), flow(0, 1, mbps(1000)),
                          flow(1, 1, mbps(1000))};
  const auto rates = maxmin_rates(net, flows);
  EXPECT_NEAR(rates[0].to_megabytes_per_second(), 50.0, 1e-6);
  EXPECT_NEAR(rates[1].to_megabytes_per_second(), 50.0, 1e-6);
  EXPECT_NEAR(rates[2].to_megabytes_per_second(), 50.0, 1e-6);
}

TEST(MaxMinAllocation, UnbalancedBottleneckGivesLexicographicMax) {
  // in0 carries 3 flows, in1 carries 1; all to distinct egresses of 100.
  // The in0 flows get 100/3 each; the lone flow gets its full egress 100.
  const Network net = Network::uniform(2, 4, mbps(100));
  const std::vector flows{flow(0, 0, mbps(1000)), flow(0, 1, mbps(1000)),
                          flow(0, 2, mbps(1000)), flow(1, 3, mbps(1000))};
  const auto rates = maxmin_rates(net, flows);
  EXPECT_NEAR(rates[0].to_megabytes_per_second(), 100.0 / 3.0, 1e-6);
  EXPECT_NEAR(rates[3].to_megabytes_per_second(), 100.0, 1e-6);
}

TEST(MaxMinAllocation, EmptyFlowSet) {
  const Network net = Network::uniform(1, 1, mbps(100));
  EXPECT_TRUE(maxmin_rates(net, std::vector<heuristics::FillFlow>{}).empty());
}

TEST(MaxMinAllocation, NeverExceedsPortCapacity) {
  Rng rng{71};
  const Network net = Network::uniform(3, 3, mbps(100));
  std::vector<heuristics::FillFlow> flows;
  for (int k = 0; k < 20; ++k) {
    flows.push_back(flow(static_cast<std::size_t>(rng.uniform_int(0, 2)),
                         static_cast<std::size_t>(rng.uniform_int(0, 2)),
                         mbps(rng.uniform(10, 200))));
  }
  const auto rates = maxmin_rates(net, flows);
  std::vector<double> in_sum(3, 0.0), out_sum(3, 0.0);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    EXPECT_LE(rates[f].to_bytes_per_second(), flows[f].max + 1.0);
    in_sum[flows[f].ingress] += rates[f].to_bytes_per_second();
    out_sum[flows[f].egress] += rates[f].to_bytes_per_second();
  }
  for (int p = 0; p < 3; ++p) {
    EXPECT_LE(in_sum[p], 1e8 + 10.0);
    EXPECT_LE(out_sum[p], 1e8 + 10.0);
  }
}

Request transfer(RequestId id, double ts, double gb, double max_mbps, double slack,
                 std::size_t in = 0, std::size_t out = 0) {
  const Volume vol = Volume::gigabytes(gb);
  const Duration fastest = vol / mbps(max_mbps);
  return RequestBuilder{id}
      .from(IngressId{in})
      .to(EgressId{out})
      .window(at(ts), at(ts) + fastest * slack)
      .volume(vol)
      .max_rate(mbps(max_mbps))
      .build();
}

TEST(MaxMinSimulation, LoneTransferCompletesAtFullRate) {
  const Network net = Network::uniform(1, 1, mbps(100));
  const std::vector<Request> rs{transfer(1, 0, 1, 100, 4.0)};  // 1 GB at 100 MB/s
  const auto out = simulate_maxmin(net, rs);
  ASSERT_EQ(out.flows.size(), 1u);
  EXPECT_TRUE(out.flows[0].completed);
  EXPECT_NEAR(out.flows[0].finish.to_seconds(), 10.0, 1e-6);
  EXPECT_NEAR(out.success_rate(), 1.0, 1e-12);
  EXPECT_EQ(out.wasted_bytes(), Volume::zero());
}

TEST(MaxMinSimulation, TwoFlowsSlowEachOtherDown) {
  const Network net = Network::uniform(1, 1, mbps(100));
  // Each alone would take 10 s; sharing makes both take ~15 s (10 s at 50
  // then... actually both at 50 for 20 s).
  const std::vector<Request> rs{transfer(1, 0, 1, 100, 4.0),
                                transfer(2, 0, 1, 100, 4.0)};
  const auto out = simulate_maxmin(net, rs);
  EXPECT_TRUE(out.flows[0].completed);
  EXPECT_TRUE(out.flows[1].completed);
  EXPECT_NEAR(out.flows[0].finish.to_seconds(), 20.0, 1e-3);
}

TEST(MaxMinSimulation, FinishedFlowReleasesBandwidth) {
  const Network net = Network::uniform(1, 1, mbps(100));
  // Flow 1: 0.5 GB; flow 2: 1 GB. Both share 50/50 until flow 1 finishes at
  // 10 s (0.5 GB at 50), then flow 2 runs at 100: 0.5 GB done at 10 s,
  // remaining 0.5 GB in 5 s -> finish at 15 s.
  const std::vector<Request> rs{transfer(1, 0, 0.5, 100, 8.0),
                                transfer(2, 0, 1, 100, 8.0)};
  const auto out = simulate_maxmin(net, rs);
  EXPECT_NEAR(out.flows[0].finish.to_seconds(), 10.0, 1e-3);
  EXPECT_NEAR(out.flows[1].finish.to_seconds(), 15.0, 1e-3);
}

TEST(MaxMinSimulation, DeadlineMissKillsFlowAndWastesBytes) {
  const Network net = Network::uniform(1, 1, mbps(100));
  // Two rigid-deadline (slack 1) transfers sharing one port: both progress
  // at 50 MB/s and neither finishes its 1 GB by t=10 -> both fail with
  // 0.5 GB wasted each.
  const std::vector<Request> rs{transfer(1, 0, 1, 100, 1.0),
                                transfer(2, 0, 1, 100, 1.0)};
  const auto out = simulate_maxmin(net, rs);
  EXPECT_FALSE(out.flows[0].completed);
  EXPECT_FALSE(out.flows[1].completed);
  EXPECT_NEAR(out.wasted_bytes().to_gigabytes(), 1.0, 1e-3);
  EXPECT_DOUBLE_EQ(out.success_rate(), 0.0);
}

TEST(MaxMinSimulation, LateArrivalSeesLeftoverCapacity) {
  const Network net = Network::uniform(1, 1, mbps(100));
  const std::vector<Request> rs{transfer(1, 0, 1, 100, 4.0),
                                transfer(2, 100, 1, 100, 4.0)};
  const auto out = simulate_maxmin(net, rs);
  EXPECT_TRUE(out.flows[1].completed);
  EXPECT_NEAR(out.flows[1].finish.to_seconds(), 110.0, 1e-3);
}

TEST(MaxMinSimulation, ByteConservation) {
  workload::Scenario scenario =
      workload::paper_flexible(Duration::seconds(2), Duration::seconds(200), 3.0);
  Rng rng{72};
  const auto requests = workload::generate(scenario.spec, rng);
  const auto out = simulate_maxmin(scenario.network, requests);
  ASSERT_EQ(out.flows.size(), requests.size());
  Volume total_offered = Volume::zero();
  for (const Request& r : requests) total_offered += r.volume;
  const Volume moved = out.useful_bytes() + out.wasted_bytes();
  EXPECT_LE(moved.to_bytes(), total_offered.to_bytes() * (1 + 1e-9));
  for (std::size_t k = 0; k < out.flows.size(); ++k) {
    EXPECT_LE(out.flows[k].transferred.to_bytes(),
              requests[k].volume.to_bytes() * (1 + 1e-9));
    if (out.flows[k].completed) {
      EXPECT_NEAR(out.flows[k].transferred.to_bytes(), requests[k].volume.to_bytes(),
                  1e3);
      EXPECT_LE(out.flows[k].finish.to_seconds(),
                requests[k].deadline.to_seconds() + 1e-6);
    }
  }
}

}  // namespace
}  // namespace gridbw::baseline
