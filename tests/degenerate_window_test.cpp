// Regression tests for degenerate request windows (ISSUE: slot_cost and
// Request::min_rate divide by `deadline - release`; a zero or negative
// window used to propagate an infinite/NaN MinRate through the admission
// math). Every scheduler must reject such requests up front — explicitly,
// in `rejected` — and leave the well-formed rest of the workload untouched.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "heuristics/distributed.hpp"
#include "heuristics/flexible_bookahead.hpp"
#include "heuristics/flexible_greedy.hpp"
#include "heuristics/flexible_window.hpp"
#include "heuristics/registry.hpp"
#include "heuristics/retry.hpp"
#include "heuristics/rigid_fcfs.hpp"
#include "heuristics/rigid_slots.hpp"
#include "obs/trace_sink.hpp"

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

TEST(DegenerateWindow, MalleableEnginesRejectUpFrontWithReshapingOnAndOff) {
  const Network net = Network::uniform(2, 2, mbps(100));
  const auto requests = mixed_workload();
  heuristics::MalleableOptions reshaping;
  reshaping.step = Duration::seconds(10);
  heuristics::MalleableOptions rigid = reshaping;
  rigid.reshape = false;
  // mwindow without reshaping is FlexibleWindowRejectsUpFrontInBothEngines'.
  for (const heuristics::NamedScheduler& engine :
       {heuristics::make_malleable_greedy(reshaping),
        heuristics::make_malleable_greedy(rigid),
        heuristics::make_malleable_window(reshaping)}) {
    expect_degenerates_rejected(engine.run(net, requests), engine.name.c_str());
  }
}

TEST(DegenerateWindow, RetryRejectsAtFirstSubmissionWithoutRetries) {
  // A retry keeps the window's length, so a degenerate window can never
  // become feasible: retrying it only spends the budget.
  const Network net = Network::uniform(2, 2, mbps(100));
  heuristics::RetryPolicy retry;
  retry.max_attempts = 4;
  const heuristics::RetryResult out = heuristics::schedule_greedy_with_retries(
      net, mixed_workload(), heuristics::BandwidthPolicy::min_rate(), retry);
  expect_degenerates_rejected(out.result, "retry");
  EXPECT_EQ(out.retries_issued, 0u);
  EXPECT_EQ(out.effective_requests.size(), 3u);
}

TEST(DegenerateWindow, EveryTracedEngineRejectsEachDegenerateOnceAsDegenerateWindow) {
  const Network net = Network::uniform(2, 2, mbps(100));
  const auto requests = mixed_workload();
  heuristics::WindowOptions wopt;
  wopt.step = Duration::seconds(10);
  heuristics::MalleableOptions mopt;
  mopt.step = wopt.step;
  heuristics::BookAheadOptions bopt;
  bopt.step = wopt.step;
  heuristics::RetryPolicy retry;
  retry.max_attempts = 4;
  std::vector<heuristics::NamedScheduler> engines = heuristics::rigid_schedulers();
  engines.push_back(heuristics::make_greedy(heuristics::BandwidthPolicy::min_rate()));
  engines.push_back(heuristics::make_window(wopt));
  engines.push_back(heuristics::make_malleable_greedy(mopt));
  engines.push_back(heuristics::make_malleable_window(mopt));
  engines.emplace_back("bookahead", [bopt](const Network& n, std::span<const Request> rs,
                                           obs::Observer* o) {
    return heuristics::schedule_flexible_bookahead(n, rs, bopt, o);
  });
  engines.emplace_back("retry", [retry](const Network& n, std::span<const Request> rs,
                                        obs::Observer* o) {
    return heuristics::schedule_greedy_with_retries(
               n, rs, heuristics::BandwidthPolicy::min_rate(), retry, o)
        .result;
  });

  for (const heuristics::NamedScheduler& engine : engines) {
    obs::MemorySink sink;
    obs::Observer observer{&sink, nullptr};
    expect_degenerates_rejected(engine.run(net, requests, &observer),
                                engine.name.c_str());
    for (const RequestId id : {RequestId{2}, RequestId{3}}) {
      std::vector<std::string> reasons;
      for (const obs::AdmissionEvent& e : sink.events()) {
        if (e.request == id && e.kind == obs::EventKind::kRejected) {
          reasons.push_back(obs::to_string(e.reason));
        }
      }
      EXPECT_EQ(reasons, std::vector<std::string>{"degenerate_window"})
          << engine.name << " r" << id;
    }
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
