// Tests for the data-plane replay: policed execution keeps every promise;
// unpoliced execution breaks them exactly when senders misbehave.

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "dataplane/replay.hpp"
#include "heuristics/flexible_greedy.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace gridbw::dataplane {
namespace {

TimePoint at(double s) { return TimePoint::at_seconds(s); }
Bandwidth mbps(double m) { return Bandwidth::megabytes_per_second(m); }

struct Fixture {
  Network net = Network::uniform(1, 1, mbps(100));
  std::vector<Request> requests;
  Schedule schedule;

  /// Two 50 MB/s transfers sharing the port exactly, [0, 20) each.
  Fixture() {
    for (RequestId id = 1; id <= 2; ++id) {
      requests.push_back(RequestBuilder{id}
                             .from(IngressId{0})
                             .to(EgressId{0})
                             .window(at(0), at(40))
                             .volume(Volume::gigabytes(1))
                             .max_rate(mbps(100))
                             .build());
      schedule.accept(id, at(0), mbps(50));
    }
  }
};

TEST(ReplayPoliced, ConformingSendersKeepAllPromises) {
  Fixture f;
  const auto report = replay_policed(f.net, f.requests, f.schedule);
  ASSERT_EQ(report.transfers.size(), 2u);
  EXPECT_EQ(report.late_count(), 0u);
  EXPECT_EQ(report.total_dropped(), Volume::zero());
  for (const auto& t : report.transfers) {
    EXPECT_NEAR(t.actual_finish.to_seconds(), 20.0, 1e-6);
    EXPECT_FALSE(t.misbehaving);
  }
  EXPECT_NEAR(report.peak_port_utilization, 1.0, 1e-9);
}

TEST(ReplayPoliced, MisbehaverIsClippedNotRewarded) {
  Fixture f;
  ReplayOptions opt;
  opt.misbehaving = {1};
  opt.misbehave_factor = 3.0;
  const auto report = replay_policed(f.net, f.requests, f.schedule, opt);
  EXPECT_EQ(report.late_count(), 0u);  // schedule unaffected
  for (const auto& t : report.transfers) {
    if (t.id == 1) {
      EXPECT_TRUE(t.misbehaving);
      EXPECT_NEAR(t.dropped.to_gigabytes(), 2.0, 1e-6);  // (3-1) x 1 GB
    } else {
      EXPECT_EQ(t.dropped, Volume::zero());
    }
  }
  // The port never carries more than admitted.
  EXPECT_LE(report.peak_port_utilization, 1.0 + 1e-9);
}

TEST(ReplayUnpoliced, ConformingOnlyExecutesExactly) {
  Fixture f;
  const auto report = replay_unpoliced(f.net, f.requests, f.schedule);
  EXPECT_EQ(report.late_count(), 0u);
  for (const auto& t : report.transfers) {
    EXPECT_NEAR(t.actual_finish.to_seconds(), t.promised_finish.to_seconds(), 1e-3);
  }
}

TEST(ReplayUnpoliced, MisbehaverDelaysConformingFlows) {
  Fixture f;
  ReplayOptions opt;
  opt.misbehaving = {1};
  opt.misbehave_factor = 3.0;
  const auto report = replay_unpoliced(f.net, f.requests, f.schedule, opt);
  // Max-min with offers {150, 50}: both start at 50/50... the misbehaver's
  // extra offer only helps once the conformer finishes; equal split means
  // the conformer still finishes on time here. Force the squeeze instead:
  // conformer reserved 80, misbehaver reserved 20 offering 60. Max-min
  // gives 50/50 -> the conformer runs at 50 < 80 and is late.
  Network net = Network::uniform(1, 1, mbps(100));
  std::vector<Request> rs;
  Schedule s;
  rs.push_back(RequestBuilder{1}
                   .from(IngressId{0})
                   .to(EgressId{0})
                   .window(at(0), at(40))
                   .volume(Volume::gigabytes(0.8))
                   .max_rate(mbps(100))
                   .build());
  s.accept(1, at(0), mbps(80));  // promised finish: 10 s
  rs.push_back(RequestBuilder{2}
                   .from(IngressId{0})
                   .to(EgressId{0})
                   .window(at(0), at(400))
                   .volume(Volume::gigabytes(0.2))
                   .max_rate(mbps(100))
                   .build());
  s.accept(2, at(0), mbps(20));
  ReplayOptions squeeze;
  squeeze.misbehaving = {2};
  squeeze.misbehave_factor = 3.0;  // offers 60
  const auto squeezed = replay_unpoliced(net, rs, s, squeeze);
  ASSERT_EQ(squeezed.transfers.size(), 2u);
  std::size_t late_conforming = 0;
  for (const auto& t : squeezed.transfers) {
    if (!t.misbehaving && t.late()) ++late_conforming;
  }
  EXPECT_EQ(late_conforming, 1u);
  (void)report;
}

TEST(Replay, LargeScheduleKeepsPromisesUnderPolicing) {
  const workload::Scenario scenario =
      workload::paper_flexible(Duration::seconds(2), Duration::seconds(300), 4.0);
  Rng rng{601};
  const auto requests = workload::generate(scenario.spec, rng);
  const auto result = heuristics::schedule_flexible_greedy(
      scenario.network, requests, heuristics::BandwidthPolicy::fraction_of_max(0.8));
  ReplayOptions opt;
  // Every third accepted request misbehaves.
  std::size_t k = 0;
  for (const Assignment& a : result.schedule.assignments()) {
    if (++k % 3 == 0) opt.misbehaving.push_back(a.request);
  }
  const auto report = replay_policed(scenario.network, requests, result.schedule, opt);
  EXPECT_EQ(report.late_count(), 0u);
  EXPECT_LE(report.peak_port_utilization, 1.0 + 1e-6);
  EXPECT_GT(report.total_dropped().to_bytes(), 0.0);
}

TEST(Replay, Validation) {
  Fixture f;
  Schedule alien;
  alien.accept(99, at(0), mbps(10));
  EXPECT_THROW((void)replay_policed(f.net, f.requests, alien), std::invalid_argument);
  ReplayOptions opt;
  opt.misbehaving = {1};
  for (const double factor : {1.0, std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()}) {
    opt.misbehave_factor = factor;
    EXPECT_THROW((void)replay_policed(f.net, f.requests, f.schedule, opt),
                 std::invalid_argument)
        << factor;
    EXPECT_THROW((void)replay_unpoliced(f.net, f.requests, f.schedule, opt),
                 std::invalid_argument)
        << factor;
  }
}

}  // namespace
}  // namespace gridbw::dataplane
