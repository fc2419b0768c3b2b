// Retired-breakpoint GC: differential proof that
// TimelineProfile::retire_before keeps post-horizon query semantics
// bit-identical. Its one caller, the online AdmissionService, is checked
// against GC-off runs in service_test.
//
// The EXPECT_EQ assertions below compare raw doubles on purpose: the GC
// contract is exact equality (the compacted standing breakpoint folds to
// the same prefix sums bit for bit), not approximate agreement.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/timeline_profile.hpp"
#include "workload/generator.hpp"
#include "workload/load.hpp"
#include "workload/scenario.hpp"

namespace gridbw {
namespace {

constexpr std::uint64_t kSeeds[] = {7, 1234, 99999};

/// Fig-4-shaped rigid workload (the paper's §4.3 arrival mix).
std::vector<Request> fig4_workload(std::uint64_t seed, std::size_t count) {
  workload::Scenario scenario =
      workload::paper_rigid(Duration::seconds(1), Duration::seconds(1));
  scenario.spec.mean_interarrival =
      workload::interarrival_for_load(scenario.spec, scenario.network, 3.0);
  scenario.spec.horizon =
      scenario.spec.mean_interarrival * static_cast<double>(count);
  Rng rng{seed};
  auto requests = workload::generate(scenario.spec, rng);
  if (requests.size() > count) requests.resize(count);
  return requests;
}

/// Loads every request's [release, deadline) @ min_rate into one profile.
TimelineProfile profile_of(const std::vector<Request>& requests) {
  TimelineProfile profile;
  for (const Request& r : requests) {
    if (!(r.deadline > r.release)) continue;
    profile.add(r.release, r.deadline, r.min_rate().to_bytes_per_second());
  }
  profile.ensure_merged();
  return profile;
}

// --- retire_before differential -------------------------------------------

TEST(ProfileGc, PostHorizonQueriesBitIdenticalAcrossSeeds) {
  for (const std::uint64_t seed : kSeeds) {
    const auto requests = fig4_workload(seed, 600);
    ASSERT_GT(requests.size(), 100u);
    const TimelineProfile reference = profile_of(requests);

    // Retire at several horizons spread over the busy span.
    TimePoint last;
    for (const Request& r : requests) last = max(last, r.deadline);
    for (const double frac : {0.25, 0.5, 0.9}) {
      TimelineProfile gc = profile_of(requests);
      const TimePoint horizon = TimePoint::at_seconds(last.to_seconds() * frac);
      const std::size_t planned = gc.retirable_before(horizon);
      const std::size_t retired = gc.retire_before(horizon);
      EXPECT_EQ(planned, retired);
      EXPECT_EQ(gc.breakpoint_count() + retired, reference.breakpoint_count());

      // Dense query sweep at and after the horizon: values, window maxima,
      // and integrals must be the exact same doubles.
      const double h = horizon.to_seconds();
      const double span = last.to_seconds() - h;
      for (int k = 0; k <= 200; ++k) {
        const TimePoint t =
            TimePoint::at_seconds(h + span * static_cast<double>(k) / 200.0);
        EXPECT_EQ(gc.value_at(t), reference.value_at(t)) << "seed " << seed;
        const TimePoint t1 = TimePoint::at_seconds(t.to_seconds() + span / 7.0);
        EXPECT_EQ(gc.max_over(t, t1), reference.max_over(t, t1));
        EXPECT_EQ(gc.integral(t, t1), reference.integral(t, t1));
      }
      // A second retirement at the same horizon is a no-op.
      EXPECT_EQ(gc.retire_before(horizon), 0u);
    }
  }
}

TEST(ProfileGc, StandingLoadVisibleBeforeHorizon) {
  TimelineProfile profile;
  profile.add(TimePoint::at_seconds(1.0), TimePoint::at_seconds(5.0), 100.0);
  profile.add(TimePoint::at_seconds(2.0), TimePoint::at_seconds(8.0), 50.0);
  profile.ensure_merged();
  const double at_6 = profile.value_at(TimePoint::at_seconds(6.0));

  ASSERT_GT(profile.retire_before(TimePoint::at_seconds(6.0)), 0u);
  // Post-horizon: exact.
  EXPECT_EQ(profile.value_at(TimePoint::at_seconds(6.0)), at_6);
  EXPECT_EQ(profile.value_at(TimePoint::at_seconds(9.0)), 0.0);
  // Pre-horizon queries see the folded standing load (documented loss of
  // pre-horizon resolution), never a negative or larger-than-peak value.
  EXPECT_EQ(profile.value_at(TimePoint::at_seconds(5.5)), at_6);
}

// --- boundary semantics at the retire_before horizon (ISSUE 9 satellite) --

TEST(ProfileGc, RetireAtExactBreakpointInstantKeepsTheAtHorizonBreakpoint) {
  // Horizon landing exactly ON a breakpoint: only instants strictly before
  // it fold; the at-horizon breakpoint (and every query from it on) is
  // bit-identical history, not standing load.
  TimelineProfile profile;
  profile.add(TimePoint::at_seconds(0.0), TimePoint::at_seconds(10.0), 5.0);
  profile.add(TimePoint::at_seconds(10.0), TimePoint::at_seconds(20.0), 3.0);
  profile.add(TimePoint::at_seconds(20.0), TimePoint::at_seconds(30.0), 7.0);
  profile.ensure_merged();
  TimelineProfile gc = profile;

  const TimePoint h = TimePoint::at_seconds(20.0);  // exact breakpoint
  EXPECT_EQ(gc.retirable_before(h), 1u);  // 0 folds into 10; 20 survives
  EXPECT_EQ(gc.retire_before(h), 1u);
  for (const double t : {20.0, 20.0 + 1e-9, 25.0, 30.0, 31.0}) {
    const TimePoint tp = TimePoint::at_seconds(t);
    EXPECT_EQ(gc.value_at(tp), profile.value_at(tp)) << "t=" << t;
  }
  EXPECT_EQ(gc.integral(h, TimePoint::at_seconds(30.0)),
            profile.integral(h, TimePoint::at_seconds(30.0)));
  EXPECT_EQ(gc.max_over(h, TimePoint::at_seconds(30.0)),
            profile.max_over(h, TimePoint::at_seconds(30.0)));
}

TEST(ProfileGc, WindowStraddlingTheFoldedBreakpointUsesStandingLoadOnly) {
  // [0,10)@5 + [10,20)@3, retired at 15: the standing breakpoint sits at 10
  // carrying load 3. A window straddling it must integrate 0 before the
  // standing instant and 3 after — never resurrect the retired 5 — and
  // max_over must report the standing load, not the retired peak.
  TimelineProfile profile;
  profile.add(TimePoint::at_seconds(0.0), TimePoint::at_seconds(10.0), 5.0);
  profile.add(TimePoint::at_seconds(10.0), TimePoint::at_seconds(20.0), 3.0);
  profile.ensure_merged();
  ASSERT_EQ(profile.retire_before(TimePoint::at_seconds(15.0)), 1u);

  // [5, 15): zero over [5,10) + 3 over [10,15).
  EXPECT_EQ(profile.integral(TimePoint::at_seconds(5.0), TimePoint::at_seconds(15.0)),
            15.0);
  EXPECT_EQ(profile.max_over(TimePoint::at_seconds(5.0), TimePoint::at_seconds(15.0)),
            3.0);
  // Entirely before the standing instant: nothing left there.
  EXPECT_EQ(profile.integral(TimePoint::at_seconds(2.0), TimePoint::at_seconds(8.0)),
            0.0);
  EXPECT_EQ(profile.max_over(TimePoint::at_seconds(2.0), TimePoint::at_seconds(8.0)),
            0.0);
  // Post-horizon window stays exact.
  EXPECT_EQ(profile.integral(TimePoint::at_seconds(15.0), TimePoint::at_seconds(20.0)),
            15.0);
}

TEST(ProfileGc, HorizonQueriesAtTheExactHorizonInstantAreBitIdentical) {
  // Minimal deterministic pin of the sweep invariant: the query anchored
  // exactly at the horizon (the first post-GC instant callers probe, e.g.
  // the churn service's watermark) returns the same doubles pre/post GC,
  // for a horizon strictly between breakpoints.
  TimelineProfile profile;
  profile.add(TimePoint::at_seconds(1.0), TimePoint::at_seconds(4.0), 0.1);
  profile.add(TimePoint::at_seconds(2.0), TimePoint::at_seconds(7.0), 0.2);
  profile.add(TimePoint::at_seconds(3.0), TimePoint::at_seconds(9.0), 0.3);
  profile.ensure_merged();
  TimelineProfile gc = profile;
  const TimePoint h = TimePoint::at_seconds(5.5);  // between breakpoints 4 and 7

  const double v = profile.value_at(h);
  const double m = profile.max_over(h, TimePoint::at_seconds(10.0));
  const double i = profile.integral(h, TimePoint::at_seconds(10.0));
  ASSERT_GT(gc.retire_before(h), 0u);
  EXPECT_EQ(gc.value_at(h), v);
  EXPECT_EQ(gc.max_over(h, TimePoint::at_seconds(10.0)), m);
  EXPECT_EQ(gc.integral(h, TimePoint::at_seconds(10.0)), i);
  // Degenerate windows at the horizon are 0 on both sides, not NaN or the
  // standing load.
  EXPECT_EQ(gc.integral(h, h), 0.0);
  EXPECT_EQ(gc.max_over(h, h), 0.0);
  EXPECT_EQ(gc.integral(TimePoint::at_seconds(6.0), h), 0.0);  // inverted
}

TEST(ProfileGc, RetireKeepsAddPathUsable) {
  // After a fold the profile must keep absorbing adds at/after the horizon.
  TimelineProfile profile;
  for (int k = 0; k < 100; ++k) {
    profile.add(TimePoint::at_seconds(k), TimePoint::at_seconds(k + 1), 10.0);
  }
  profile.ensure_merged();
  ASSERT_GT(profile.retire_before(TimePoint::at_seconds(90.0)), 0u);
  profile.add(TimePoint::at_seconds(95.0), TimePoint::at_seconds(99.0), 7.0);
  EXPECT_EQ(profile.value_at(TimePoint::at_seconds(96.0)), 17.0);
  EXPECT_EQ(profile.value_at(TimePoint::at_seconds(100.5)), 0.0);
}

}  // namespace
}  // namespace gridbw
