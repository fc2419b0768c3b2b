// Regression tests for degenerate request windows (ISSUE: slot_cost and
// Request::min_rate divide by `deadline - release`; a zero or negative
// window used to propagate an infinite/NaN MinRate through the admission
// math). Every scheduler must reject such requests up front — explicitly,
// in `rejected` — and leave the well-formed rest of the workload untouched.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "heuristics/distributed.hpp"
#include "heuristics/flexible_bookahead.hpp"
#include "heuristics/flexible_greedy.hpp"
#include "heuristics/flexible_window.hpp"
#include "heuristics/registry.hpp"
#include "heuristics/rigid_fcfs.hpp"
#include "heuristics/rigid_slots.hpp"

namespace gridbw {
namespace {

TimePoint at(double s) { return TimePoint::at_seconds(s); }
Bandwidth mbps(double m) { return Bandwidth::megabytes_per_second(m); }

/// One healthy request, one zero-length window, one inverted window. The
/// degenerates are built as raw aggregates on purpose: RequestBuilder throws
/// on them, but requests also enter through parsers/replay files, so the
/// schedulers themselves must reject `deadline <= release` up front instead
/// of dividing by the window length.
std::vector<Request> mixed_workload() {
  std::vector<Request> rs;
  rs.push_back(RequestBuilder{1}
                   .from(IngressId{0})
                   .to(EgressId{0})
                   .window(at(0), at(100))
                   .volume(Volume::megabytes(100))
                   .max_rate(mbps(10))
                   .build());
  rs.push_back(Request{2, IngressId{0}, EgressId{0}, at(50), at(50),  // zero-length
                       Volume::megabytes(1), mbps(10)});
  rs.push_back(Request{3, IngressId{1}, EgressId{1}, at(80), at(20),  // inverted
                       Volume::megabytes(1), mbps(10)});
  return rs;
}

bool rejects(const ScheduleResult& result, RequestId id) {
  return std::find(result.rejected.begin(), result.rejected.end(), id) !=
         result.rejected.end();
}

void expect_degenerates_rejected(const ScheduleResult& result, const char* what) {
  EXPECT_TRUE(result.schedule.is_accepted(1)) << what;
  EXPECT_FALSE(result.schedule.is_accepted(2)) << what;
  EXPECT_FALSE(result.schedule.is_accepted(3)) << what;
  EXPECT_TRUE(rejects(result, 2)) << what;
  EXPECT_TRUE(rejects(result, 3)) << what;
}

TEST(DegenerateWindow, RigidFcfsRejectsUpFront) {
  const Network net = Network::uniform(2, 2, mbps(100));
  expect_degenerates_rejected(heuristics::schedule_rigid_fcfs(net, mixed_workload()),
                              "fcfs");
}

TEST(DegenerateWindow, RigidSlotsRejectsUpFrontInBothEngines) {
  const Network net = Network::uniform(2, 2, mbps(100));
  const auto requests = mixed_workload();
  for (const auto cost : {heuristics::SlotCost::kCumulated,
                          heuristics::SlotCost::kMinBandwidth,
                          heuristics::SlotCost::kMinVolume}) {
    for (const auto engine : {heuristics::SlotsEngine::kRebuild,
                              heuristics::SlotsEngine::kIncremental}) {
      const auto result =
          heuristics::schedule_rigid_slots(net, requests, cost, engine);
      expect_degenerates_rejected(
          result, (to_string(cost) + "/" + to_string(engine)).c_str());
    }
  }
}

TEST(DegenerateWindow, FlexibleGreedyRejectsUpFront) {
  const Network net = Network::uniform(2, 2, mbps(100));
  expect_degenerates_rejected(
      heuristics::schedule_flexible_greedy(
          net, mixed_workload(), heuristics::BandwidthPolicy::min_rate()),
      "greedy");
}

TEST(DegenerateWindow, FlexibleWindowRejectsUpFrontInBothEngines) {
  // window and mwindow (reshaping off) both run the shared WINDOW loop.
  const Network net = Network::uniform(2, 2, mbps(100));
  const auto requests = mixed_workload();
  heuristics::WindowOptions opt;
  opt.step = Duration::seconds(10);
  heuristics::MalleableOptions mopt;
  mopt.step = opt.step;
  mopt.reshape = false;
  for (const heuristics::NamedScheduler& engine :
       {heuristics::make_window(opt), heuristics::make_malleable_window(mopt)}) {
    expect_degenerates_rejected(engine.run(net, requests), engine.name.c_str());
  }
}

TEST(DegenerateWindow, BookAheadRejectsUpFront) {
  const Network net = Network::uniform(2, 2, mbps(100));
  heuristics::BookAheadOptions opt;
  opt.step = Duration::seconds(10);
  expect_degenerates_rejected(
      heuristics::schedule_flexible_bookahead(net, mixed_workload(), opt),
      "bookahead");
}

TEST(DegenerateWindow, DistributedRejectsUpFront) {
  const Network net = Network::uniform(2, 2, mbps(100));
  heuristics::DistributedOptions opt;
  expect_degenerates_rejected(
      heuristics::schedule_flexible_distributed(net, mixed_workload(), opt).result,
      "distributed");
}

TEST(DegenerateWindow, AllDegenerateWorkloadAcceptsNothing) {
  const Network net = Network::uniform(1, 1, mbps(100));
  std::vector<Request> rs;
  rs.push_back(Request{7, IngressId{0}, EgressId{0}, at(5), at(5),
                       Volume::megabytes(1), mbps(10)});
  for (const auto cost : {heuristics::SlotCost::kCumulated,
                          heuristics::SlotCost::kMinBandwidth,
                          heuristics::SlotCost::kMinVolume}) {
    const auto result = heuristics::schedule_rigid_slots(net, rs, cost);
    EXPECT_EQ(result.schedule.assignments().size(), 0u);
    EXPECT_TRUE(rejects(result, 7));
  }
}

}  // namespace
}  // namespace gridbw
