// Tests for the malleable (piecewise-constant rate) scheduler family.
//
// The two contracts under test:
//  * reshape=false is a drop-in for the constant engines: over seeded
//    paper workloads the schedule CSV, the JSONL trace, and the rejected
//    list are byte/element-identical to schedule_flexible_greedy /
//    schedule_flexible_window (the differential suite ISSUE 9 pins);
//  * reshape=true only moves execution, never admission safety: schedules
//    validate cleanly (floors, port capacity, deadlines), profiles carry
//    exactly vol(r), and constructed workloads show the accept-rate gain
//    that earlier guarantee reclaim buys.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/schedule_io.hpp"
#include "core/validate.hpp"
#include "heuristics/flexible_greedy.hpp"
#include "heuristics/flexible_window.hpp"
#include "heuristics/malleable.hpp"
#include "heuristics/registry.hpp"
#include "obs/counters.hpp"
#include "obs/observer.hpp"
#include "obs/trace_sink.hpp"
#include "support/window_scan.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace gridbw::heuristics {
namespace {

TimePoint at(double s) { return TimePoint::at_seconds(s); }
Bandwidth mbps(double m) { return Bandwidth::megabytes_per_second(m); }

Request transfer(RequestId id, double release, double deadline, double vol_mb,
                 double max_mbps, std::size_t in = 0, std::size_t out = 0) {
  return RequestBuilder{id}
      .from(IngressId{in})
      .to(EgressId{out})
      .window(at(release), at(deadline))
      .volume(Volume::megabytes(vol_mb))
      .max_rate(mbps(max_mbps))
      .build();
}

struct TracedRun {
  std::string csv;
  std::string trace;
  std::vector<RequestId> rejected;
};

TracedRun traced(const Network& network, std::span<const Request> requests,
                 const NamedScheduler& scheduler) {
  std::ostringstream trace_out;
  obs::JsonlSink sink{trace_out};
  obs::CounterRegistry counters;
  obs::Observer observer{&sink, &counters};
  const ScheduleResult result = scheduler.run(network, requests, &observer);
  sink.flush();
  std::ostringstream csv_out;
  write_schedule(csv_out, result.schedule);
  return TracedRun{csv_out.str(), trace_out.str(), result.rejected};
}

std::vector<Request> seeded_workload(std::uint64_t seed, double interarrival) {
  const workload::Scenario scenario = workload::paper_flexible(
      Duration::seconds(interarrival), Duration::seconds(400), 4.0);
  Rng rng{seed};
  return workload::generate(scenario.spec, rng);
}

Network seeded_network() {
  return workload::paper_flexible(Duration::seconds(1), Duration::seconds(400), 4.0)
      .network;
}

// -- reshape=false: byte-identical to the constant engines ------------------

TEST(MalleableDifferential, RigidGreedyMatchesFlexibleGreedyByteForByte) {
  const Network net = seeded_network();
  for (const std::uint64_t seed : {42u, 7u, 1234u}) {
    for (const double ia : {0.3, 1.0, 3.0}) {
      const auto requests = seeded_workload(seed, ia);
      for (const auto& policy :
           {BandwidthPolicy::min_rate(), BandwidthPolicy::fraction_of_max(1.0),
            BandwidthPolicy::fraction_of_max(0.5)}) {
        MalleableOptions opt;
        opt.policy = policy;
        opt.reshape = false;
        const TracedRun rigid = traced(net, requests, make_malleable_greedy(opt));
        const TracedRun constant = traced(net, requests, make_greedy(policy));
        // Traces interleave submitted/accepted/rejected/reclaimed in decision
        // order, so equality here pins the full event sequence, not just the
        // outcome sets.
        EXPECT_EQ(rigid.trace, constant.trace) << "seed=" << seed << " ia=" << ia;
        EXPECT_EQ(rigid.csv, constant.csv) << "seed=" << seed << " ia=" << ia;
        EXPECT_EQ(rigid.rejected, constant.rejected);
      }
    }
  }
}

TEST(MalleableDifferential, RigidWindowMatchesFlexibleWindowByteForByte) {
  const Network net = seeded_network();
  for (const std::uint64_t seed : {42u, 99u}) {
    for (const double step : {50.0, 400.0}) {
      const auto requests = seeded_workload(seed, 0.5);
      MalleableOptions mopt;
      mopt.policy = BandwidthPolicy::min_rate();
      mopt.reshape = false;
      mopt.step = Duration::seconds(step);
      WindowOptions wopt;
      wopt.policy = BandwidthPolicy::min_rate();
      wopt.step = Duration::seconds(step);
      const TracedRun rigid = traced(net, requests, make_malleable_window(mopt));
      const TracedRun constant = traced(net, requests, make_window(wopt));
      EXPECT_EQ(rigid.trace, constant.trace) << "seed=" << seed << " step=" << step;
      EXPECT_EQ(rigid.csv, constant.csv) << "seed=" << seed << " step=" << step;
      EXPECT_EQ(rigid.rejected, constant.rejected);
    }
  }
}

TEST(MalleableDifferential, WindowHeapAndScanStillAgreeWithRigidMalleable) {
  // window and mwindow share the heap drain; the test-support scan is the
  // oracle both must match, trace and schedule alike.
  const Network net = seeded_network();
  const auto requests = seeded_workload(42, 0.5);
  MalleableOptions mopt;
  mopt.policy = BandwidthPolicy::min_rate();
  mopt.reshape = false;
  WindowOptions wopt;
  wopt.policy = BandwidthPolicy::min_rate();
  const NamedScheduler scan{"window-scan",
                            [wopt](const Network& n, std::span<const Request> r,
                                   obs::Observer* o) {
                              return oracle::schedule_window_by_scan(n, r, wopt, o);
                            }};
  const TracedRun rigid = traced(net, requests, make_malleable_window(mopt));
  const TracedRun heap = traced(net, requests, make_window(wopt));
  const TracedRun reference = traced(net, requests, scan);
  EXPECT_EQ(rigid.trace, reference.trace);
  EXPECT_EQ(rigid.csv, reference.csv);
  EXPECT_EQ(heap.trace, reference.trace);
  EXPECT_EQ(heap.csv, reference.csv);
}

// -- reshape=true: safety ----------------------------------------------------

TEST(Malleable, ReshapedSchedulesValidateCleanly) {
  const Network net = seeded_network();
  for (const std::uint64_t seed : {42u, 7u}) {
    const auto requests = seeded_workload(seed, 0.5);
    MalleableOptions opt;
    opt.policy = BandwidthPolicy::min_rate();
    const auto greedy = schedule_malleable_greedy(net, requests, opt);
    const auto report =
        validate_assignments(net, requests, greedy.schedule.assignments());
    EXPECT_TRUE(report.ok()) << report.to_string();

    const auto window = schedule_malleable_window(net, requests, opt);
    const auto wreport =
        validate_assignments(net, requests, window.schedule.assignments());
    EXPECT_TRUE(wreport.ok()) << wreport.to_string();
  }
}

// gridbw_sim --scheduler=mwindow:step=400,minrate --interarrival=50
// --horizon=800000 --slack=4 at these seeds once wrote over-capacity
// schedules: two reshapes at one instant collapsed a flow's profile to one
// step, the schedule ended that constant assignment at Request::finish_at,
// and the engine had reclaimed its bandwidth a few ulps earlier.
void expect_long_mwindow_run_valid(std::uint64_t seed) {
  const workload::Scenario scenario = workload::paper_flexible(
      Duration::seconds(50), Duration::seconds(800000), 4.0);
  Rng rng{seed};
  const auto requests = workload::generate(scenario.spec, rng);
  MalleableOptions opt;
  opt.policy = BandwidthPolicy::min_rate();
  const auto result = schedule_malleable_window(scenario.network, requests, opt);
  const auto report = validate_assignments(scenario.network, requests,
                                           result.schedule.assignments());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Malleable, CollapsedProfileKeepsIngressWithinCapacitySeed8) {
  expect_long_mwindow_run_valid(8);
}

TEST(Malleable, CollapsedProfileKeepsEgressWithinCapacitySeed21) {
  expect_long_mwindow_run_valid(21);
}

TEST(Malleable, ProfilesFinishNoLaterThanTheConstantPromise) {
  const Network net = seeded_network();
  const auto requests = seeded_workload(42, 0.5);
  MalleableOptions opt;
  opt.policy = BandwidthPolicy::min_rate();
  const auto result = schedule_malleable_greedy(net, requests, opt);
  std::size_t profiled = 0;
  for (const Request& r : requests) {
    const auto a = result.schedule.assignment(r.id);
    if (!a.has_value() || !a->is_profiled()) continue;
    ++profiled;
    // GREEDY admits at the release instant, so the MinRate guarantee is
    // exactly r.min_rate(); execution never drops below it, hence the flow
    // finishes by start + vol/MinRate — the deadline.
    EXPECT_TRUE(approx_le(r.min_rate(), a->profile.min_rate()))
        << "flow " << r.id << " dipped below its guarantee";
    EXPECT_TRUE(approx_le(a->profile.end(), r.deadline));
    // The profile carries the request's volume exactly (within FP noise).
    EXPECT_NEAR(a->profile.carried().to_bytes(), r.volume.to_bytes(),
                1.0 + 1e-9 * r.volume.to_bytes());
  }
  EXPECT_GT(profiled, 0u) << "workload never triggered a reshape";
}

TEST(Malleable, LongHistoryReshapingKeepsGuaranteesAndVolumes) {
  // A horizon over which admitted flows outnumber the ones in flight by
  // >= 100x, so every refill runs against a long admission history.
  const workload::Scenario scenario = workload::paper_flexible(
      Duration::seconds(50), Duration::seconds(800000), 4.0);
  Rng rng{2024};
  const auto requests = workload::generate(scenario.spec, rng);
  // f=1.0 guarantees MaxRate, so there is no surplus to hand out.
  for (const auto& [policy, reshapes] :
       {std::pair{BandwidthPolicy::min_rate(), true},
        std::pair{BandwidthPolicy::fraction_of_max(0.5), true},
        std::pair{BandwidthPolicy::fraction_of_max(1.0), false}}) {
    for (const bool window : {false, true}) {
      SCOPED_TRACE(policy.name() + (window ? " mwindow" : " mgreedy"));
      MalleableOptions opt;
      opt.policy = policy;
      const auto result = window
                              ? schedule_malleable_window(scenario.network, requests, opt)
                              : schedule_malleable_greedy(scenario.network, requests, opt);
      const auto report = validate_assignments(scenario.network, requests,
                                               result.schedule.assignments());
      EXPECT_TRUE(report.ok()) << report.to_string();

      std::vector<std::pair<TimePoint, int>> edges;  // (instant, +1 start / -1 end)
      std::size_t admitted = 0;
      std::size_t profiled = 0;
      for (const Request& r : requests) {
        const auto a = result.schedule.assignment(r.id);
        if (!a.has_value()) continue;
        ++admitted;
        profiled += a->is_profiled() ? 1 : 0;
        // The guarantee is fixed at admission, the assignment's start.
        const auto g = policy.assign(r, a->start);
        ASSERT_TRUE(g.has_value());
        double carried = 0.0;
        a->for_each_segment(r, [&](TimePoint t0, TimePoint t1, Bandwidth rate) {
          EXPECT_TRUE(approx_le(*g, rate)) << "flow " << r.id << " dipped below its guarantee";
          carried += rate.to_bytes_per_second() * (t1 - t0).to_seconds();
        });
        EXPECT_NEAR(carried, r.volume.to_bytes(), 1.0 + 1e-9 * r.volume.to_bytes())
            << "flow " << r.id;
        edges.emplace_back(a->start, 1);
        edges.emplace_back(a->end(r), -1);
      }
      // Ends sort before starts at one instant: reservations are half-open.
      std::sort(edges.begin(), edges.end());
      int live = 0;
      int peak_live = 0;
      for (const auto& [when, delta] : edges) {
        live += delta;
        peak_live = std::max(peak_live, live);
      }
      EXPECT_EQ(profiled > 0, reshapes) << profiled << " reshaped profiles";
      EXPECT_GE(admitted, 100u * static_cast<std::size_t>(peak_live))
          << "admitted " << admitted << ", peak live " << peak_live;
    }
  }
}

// -- reshape=true: the gain --------------------------------------------------

TEST(Malleable, GreedyReclaimsEarlyAndAdmitsWhatConstantRejects) {
  const Network net = Network::uniform(1, 1, mbps(100));
  // A: 1000 MB over [0,100] -> guarantee 10 MB/s, constant finish t=100;
  //    water-filled alone on the port it runs at MaxRate 100 -> finish t=10.
  // B: 2000 MB over [20,40] -> needs 100 MB/s. Constant: A still holds
  //    10 MB/s at t=20 -> reject. Malleable: A's guarantee came back at
  //    t=10 -> accept.
  const std::vector<Request> rs{transfer(1, 0, 100, 1000, 100),
                                transfer(2, 20, 40, 2000, 100)};
  const auto constant =
      schedule_flexible_greedy(net, rs, BandwidthPolicy::min_rate());
  EXPECT_TRUE(constant.schedule.is_accepted(1));
  EXPECT_FALSE(constant.schedule.is_accepted(2));

  MalleableOptions opt;
  opt.policy = BandwidthPolicy::min_rate();
  const auto malleable = schedule_malleable_greedy(net, rs, opt);
  EXPECT_TRUE(malleable.schedule.is_accepted(1));
  EXPECT_TRUE(malleable.schedule.is_accepted(2));

  // A ran alone: the admission-instant refill overwrote the guarantee step
  // with MaxRate, leaving a one-step profile that normalizes back to the
  // constant form — at 100 MB/s, finishing at t=10.
  const auto a = malleable.schedule.assignment(1);
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(a->is_profiled());
  EXPECT_EQ(a->bw, mbps(100));
  EXPECT_EQ(a->start, at(0));
}

TEST(Malleable, WindowReclaimsEarlyAndAdmitsWhatConstantRejects) {
  const Network net = Network::uniform(1, 1, mbps(100));
  // Interval length 10. A lands in [0,10), admitted at decision t=10 with
  // g = 1000/(100-10) = 11.1 MB/s; water-filled it finishes at t=20.
  // B lands in [20,30), decided at t=30 with g = 2000/22 = 90.9 MB/s:
  // constant still carries A's 11.1 -> 90.9 does not fit; malleable
  // reclaimed A at t=20 -> the port is empty and B fits.
  const std::vector<Request> rs{transfer(1, 0, 100, 1000, 100),
                                transfer(2, 20, 52, 2000, 100)};
  WindowOptions wopt;
  wopt.policy = BandwidthPolicy::min_rate();
  wopt.step = Duration::seconds(10);
  const auto constant = schedule_flexible_window(net, rs, wopt);
  EXPECT_TRUE(constant.schedule.is_accepted(1));
  EXPECT_FALSE(constant.schedule.is_accepted(2));

  MalleableOptions mopt;
  mopt.policy = BandwidthPolicy::min_rate();
  mopt.step = Duration::seconds(10);
  const auto malleable = schedule_malleable_window(net, rs, mopt);
  EXPECT_TRUE(malleable.schedule.is_accepted(1));
  EXPECT_TRUE(malleable.schedule.is_accepted(2));
}

TEST(Malleable, NewcomerPushesIncumbentBackTowardGuarantee) {
  const Network net = Network::uniform(1, 1, mbps(100));
  // A runs alone water-filled to 100 MB/s; B's admission at t=5 claims
  // 60 MB/s of guarantee, so A falls back to the 40 left — above its own
  // guarantee of 10 — and the two finish sharing the port exactly.
  const std::vector<Request> rs{transfer(1, 0, 100, 1000, 100),
                                transfer(2, 5, 15, 600, 60)};
  MalleableOptions opt;
  opt.policy = BandwidthPolicy::min_rate();
  const auto result = schedule_malleable_greedy(net, rs, opt);
  ASSERT_TRUE(result.schedule.is_accepted(1));
  ASSERT_TRUE(result.schedule.is_accepted(2));
  const auto a = result.schedule.assignment(1);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(a->is_profiled());
  // Steps: 100 from t=0 (alone, the admission-instant refill overwrites the
  // 10 MB/s guarantee step), down to 40 at t=5 (B claims its 60 MB/s
  // guarantee), back to 100 at t=15 once B departs.
  EXPECT_EQ(a->profile.rate_at(at(0)), mbps(100));
  EXPECT_EQ(a->profile.rate_at(at(4)), mbps(100));
  EXPECT_EQ(a->profile.rate_at(at(6)), mbps(40));
  EXPECT_EQ(a->profile.rate_at(at(15.5)), mbps(100));
  EXPECT_NEAR(a->profile.end().to_seconds(), 16.0, 1e-9);
  const auto report = validate_assignments(net, rs, result.schedule.assignments());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// -- narration + determinism -------------------------------------------------

TEST(Malleable, ReshapesAreNarratedAndCounted) {
  const Network net = seeded_network();
  const auto requests = seeded_workload(42, 0.5);
  std::ostringstream out;
  obs::JsonlSink sink{out};
  obs::CounterRegistry counters;
  obs::Observer observer{&sink, &counters};
  MalleableOptions opt;
  opt.policy = BandwidthPolicy::min_rate();
  (void)schedule_malleable_greedy(net, requests, opt, &observer);
  sink.flush();
  EXPECT_GT(counters.value(obs::Counter::kReshaped), 0u);
  EXPECT_NE(out.str().find("\"event\":\"reshaped\""), std::string::npos);

  // reshape=false must stay silent on that channel.
  obs::CounterRegistry quiet;
  obs::Observer rigid_observer{nullptr, &quiet};
  opt.reshape = false;
  (void)schedule_malleable_greedy(net, requests, opt, &rigid_observer);
  EXPECT_EQ(quiet.value(obs::Counter::kReshaped), 0u);
}

TEST(Malleable, RepeatRunsAreByteIdentical) {
  const Network net = seeded_network();
  const auto requests = seeded_workload(42, 0.5);
  MalleableOptions opt;
  opt.policy = BandwidthPolicy::min_rate();
  const TracedRun a = traced(net, requests, make_malleable_greedy(opt));
  const TracedRun b = traced(net, requests, make_malleable_greedy(opt));
  ASSERT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.csv, b.csv);
}

TEST(Malleable, RegistryNames) {
  MalleableOptions opt;
  opt.policy = BandwidthPolicy::min_rate();
  EXPECT_EQ(make_malleable_greedy(opt).name, "mgreedy/minrate");
  EXPECT_EQ(make_malleable_window(opt).name, "mwindow400/minrate");
  opt.reshape = false;
  EXPECT_EQ(make_malleable_greedy(opt).name, "mgreedy/minrate-rigid");
}

}  // namespace
}  // namespace gridbw::heuristics
