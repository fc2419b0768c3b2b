// TimelineProfile: unit tests for the flat port-load profile, plus the
// differential proof that it is bit-identical to the StepFunction reference
// (same breakpoints, value_at, max_over, global_max, integral) across
// randomized interval stacks (topped with a breakpoint-dense run probed by
// sliver windows), one-add-one-query cycles (with retire_before and compact
// between them), batched adds whose global queries follow runs of windowed
// ones, and compact.
// Comparisons use EXPECT_EQ on raw doubles on purpose: the flat profile
// reproduces the exact floating-point operation order of the map scans.

#include "core/timeline_profile.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "support/step_function.hpp"
#include "util/random.hpp"

namespace gridbw {
namespace {

TimePoint at(double s) { return TimePoint::at_seconds(s); }

TEST(TimelineProfile, EmptyIsZeroEverywhere) {
  TimelineProfile f;
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.value_at(at(0)), 0.0);
  EXPECT_EQ(f.max_over(at(0), at(100)), 0.0);
  EXPECT_EQ(f.global_max(), 0.0);
  EXPECT_EQ(f.integral(at(0), at(100)), 0.0);
  EXPECT_TRUE(f.breakpoints().empty());
}

TEST(TimelineProfile, SingleInterval) {
  TimelineProfile f;
  f.add(at(10), at(20), 5.0);
  EXPECT_FALSE(f.empty());
  EXPECT_EQ(f.value_at(at(9.99)), 0.0);
  EXPECT_EQ(f.value_at(at(10)), 5.0);  // right-continuous
  EXPECT_EQ(f.value_at(at(15)), 5.0);
  EXPECT_EQ(f.value_at(at(20)), 0.0);  // half-open
}

TEST(TimelineProfile, OverlappingIntervalsStack) {
  TimelineProfile f;
  f.add(at(0), at(10), 1.0);
  f.add(at(5), at(15), 2.0);
  EXPECT_EQ(f.value_at(at(2)), 1.0);
  EXPECT_EQ(f.value_at(at(7)), 3.0);
  EXPECT_EQ(f.value_at(at(12)), 2.0);
  EXPECT_EQ(f.global_max(), 3.0);
}

TEST(TimelineProfile, EmptyOrInvertedIntervalIsNoop) {
  TimelineProfile f;
  f.add(at(5), at(5), 3.0);
  f.add(at(6), at(2), 3.0);
  f.add(at(1), at(9), 0.0);
  EXPECT_TRUE(f.empty());
}

TEST(TimelineProfile, MaxOverWindows) {
  TimelineProfile f;
  f.add(at(0), at(10), 1.0);
  f.add(at(4), at(6), 2.0);
  EXPECT_EQ(f.max_over(at(0), at(4)), 1.0);
  EXPECT_EQ(f.max_over(at(0), at(10)), 3.0);
  EXPECT_EQ(f.max_over(at(6), at(10)), 1.0);
  EXPECT_EQ(f.max_over(at(10), at(20)), 0.0);
  // Value holding at the window's left edge counts.
  EXPECT_EQ(f.max_over(at(5), at(5.5)), 3.0);
  // Empty window.
  EXPECT_EQ(f.max_over(at(5), at(5)), 0.0);
}

TEST(TimelineProfile, IntegralOfRectangles) {
  TimelineProfile f;
  f.add(at(0), at(10), 2.0);
  f.add(at(5), at(10), 3.0);
  EXPECT_EQ(f.integral(at(0), at(10)), 35.0);
  EXPECT_EQ(f.integral(at(0), at(5)), 10.0);
  EXPECT_EQ(f.integral(at(-10), at(0)), 0.0);
  EXPECT_EQ(f.integral(at(20), at(30)), 0.0);
}

TEST(TimelineProfile, PendingBufferMergesAcrossBatches) {
  // Query between batches of adds: each query must see everything added so
  // far, and later batches must merge into the already-compiled arrays.
  TimelineProfile f;
  f.add(at(0), at(10), 1.0);
  EXPECT_EQ(f.value_at(at(5)), 1.0);  // forces the first merge
  f.add(at(5), at(15), 2.0);          // lands inside existing breakpoints
  f.add(at(0), at(10), 4.0);          // duplicates existing instants
  EXPECT_EQ(f.value_at(at(7)), 7.0);
  EXPECT_EQ(f.value_at(at(12)), 2.0);
  EXPECT_EQ(f.global_max(), 7.0);
  EXPECT_EQ(f.breakpoint_count(), 4u);  // 0, 5, 10, 15
}

TEST(TimelineProfile, CompileAllowsConstSharedQueries) {
  TimelineProfile f;
  f.add(at(1), at(9), 2.5);
  f.ensure_merged();
  const TimelineProfile& view = f;
  EXPECT_EQ(view.value_at(at(4)), 2.5);
}

TEST(TimelineProfile, MergedReflectsPendingStateAcrossTheLifecycle) {
  // The sharing contract of the parallel validator: a profile may only be
  // handed to concurrent readers while merged() holds; any add() revokes it
  // until the next ensure_merged()/query. (tests/tsan_stress_test.cpp
  // exercises the actual concurrent reads under ThreadSanitizer.)
  TimelineProfile f;
  EXPECT_TRUE(f.merged());  // empty profile has nothing pending
  f.add(at(0), at(4), 1.0);
  EXPECT_FALSE(f.merged());
  f.ensure_merged();
  EXPECT_TRUE(f.merged());
  EXPECT_EQ(f.value_at(at(2)), 1.0);
  EXPECT_TRUE(f.merged()) << "queries on a merged profile are pure reads";
  f.add(at(2), at(6), 1.0);
  EXPECT_FALSE(f.merged()) << "new adds revoke shared-read safety";
  EXPECT_EQ(f.global_max(), 2.0);  // implicit merge via query
  EXPECT_TRUE(f.merged());
  f.compact();
  EXPECT_TRUE(f.merged());
}

TEST(TimelineProfile, CompactRemovesCancelledBreakpoints) {
  TimelineProfile f;
  f.add(at(1), at(2), 3.0);
  f.add(at(1), at(2), -3.0);
  f.add(at(5), at(6), 1.0);
  f.compact();
  const auto pts = f.breakpoints();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0], at(5));
  EXPECT_EQ(f.breakpoint_count(), 2u);
}

// ---------------------------------------------------------------------------
// Differential property: bit-identical to the StepFunction reference.
// ---------------------------------------------------------------------------

/// Applies the same randomized add/query interleaving to both structures and
/// asserts raw-double equality on every query kind.
void expect_identical(const StepFunction& ref, const TimelineProfile& flat,
                      const std::vector<double>& probes, std::uint64_t seed) {
  const auto ref_bp = ref.breakpoints();
  const auto flat_bp = flat.breakpoints();
  ASSERT_EQ(ref_bp.size(), flat_bp.size()) << "seed=" << seed;
  for (std::size_t k = 0; k < ref_bp.size(); ++k) {
    EXPECT_EQ(ref_bp[k].to_seconds(), flat_bp[k].to_seconds()) << "seed=" << seed;
  }
  EXPECT_EQ(ref.global_max(), flat.global_max()) << "seed=" << seed;
  for (const double t : probes) {
    EXPECT_EQ(ref.value_at(at(t)), flat.value_at(at(t))) << "t=" << t << " seed=" << seed;
  }
  for (std::size_t k = 0; k + 1 < probes.size(); ++k) {
    const double lo = std::min(probes[k], probes[k + 1]);
    const double hi = std::max(probes[k], probes[k + 1]);
    EXPECT_EQ(ref.max_over(at(lo), at(hi)), flat.max_over(at(lo), at(hi)))
        << "[" << lo << "," << hi << ") seed=" << seed;
    EXPECT_EQ(ref.integral(at(lo), at(hi)), flat.integral(at(lo), at(hi)))
        << "[" << lo << "," << hi << ") seed=" << seed;
  }
}

class TimelineProfileDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimelineProfileDifferential, BitIdenticalToStepFunctionOnRandomStacks) {
  const std::uint64_t seed = GetParam();
  Rng rng{seed};
  StepFunction ref;
  TimelineProfile flat;
  std::vector<double> probes;
  // Several batches with queries in between, so the pending-buffer merge
  // path (not just the build-once path) is exercised; include negative
  // deltas (releases) and exact duplicates of earlier instants.
  for (int batch = 0; batch < 5; ++batch) {
    for (int k = 0; k < 60; ++k) {
      const double lo = rng.uniform(0, 900);
      const double hi = lo + rng.uniform(0.25, 80);
      const double delta =
          rng.uniform01() < 0.2 ? -rng.uniform(0.1, 2.0) : rng.uniform(0.1, 4.0);
      ref.add(at(lo), at(hi), delta);
      flat.add(at(lo), at(hi), delta);
    }
    // Mid-stream probe forces a merge of this batch before the next one.
    const double t = rng.uniform(-10, 1010);
    probes.push_back(t);
    EXPECT_EQ(ref.value_at(at(t)), flat.value_at(at(t))) << "seed=" << seed;
  }
  // Breakpoint-dense last batch: abutting one-second segments, probed so
  // that consecutive probe pairs give zero-width [t, t) slivers, exact
  // one-segment windows, windows ending or straddling on breakpoints, and
  // windows wholly before or after the profile.
  for (int k = 0; k < 1000; ++k) {
    const double delta =
        static_cast<double>((static_cast<std::uint64_t>(k) * 37 + seed) % 101);
    ref.add(at(k), at(k + 1), delta);
    flat.add(at(k), at(k + 1), delta);
  }
  for (int k = 0; k < 50; ++k) probes.push_back(rng.uniform(-20, 1020));
  for (int k = 0; k < 1000; k += 7) {
    const double t = k;
    probes.insert(probes.end(), {t, t, t + 1, t + 0.5, t + 1.5});
  }
  probes.insert(probes.end(), {-100, -50, 9000, 9100});
  expect_identical(ref, flat, probes, seed);
}

TEST_P(TimelineProfileDifferential, CompactMatchesStepFunctionCompact) {
  const std::uint64_t seed = GetParam();
  Rng rng{seed};
  StepFunction ref;
  TimelineProfile flat;
  // Add/cancel pairs so that compaction has real work to do.
  for (int k = 0; k < 80; ++k) {
    const double lo = rng.uniform(0, 400);
    const double hi = lo + rng.uniform(1, 40);
    const double delta = rng.uniform(0.5, 3.0);
    ref.add(at(lo), at(hi), delta);
    flat.add(at(lo), at(hi), delta);
    if (rng.uniform01() < 0.6) {
      ref.add(at(lo), at(hi), -delta);
      flat.add(at(lo), at(hi), -delta);
    }
  }
  ref.compact();
  flat.compact();
  std::vector<double> probes;
  for (int k = 0; k < 40; ++k) probes.push_back(rng.uniform(-10, 460));
  expect_identical(ref, flat, probes, seed);
}

/// One add, then one round of queries, for 2400 steps: every merge folds a
/// single interval into a resident profile, the ledger/service pattern, so
/// each step exercises the suffix-only cache repair. `monotone` draws release
/// times from an advancing clock and departs live intervals with zero-sum
/// releases, retiring the settled past every 400 steps (FCFS/churn shape);
/// otherwise instants are uniform over the axis, some before the first
/// breakpoint, and the profile is compacted every 400 steps. Both shapes
/// snap endpoints onto existing instants. Queries compare raw doubles; after
/// `retire_before(h)` the flat side answers for [h, ∞) only, so its
/// whole-axis and left-anchored maxima are compared with the reference's
/// maximum from just below h.
void expect_interleaved_identical(std::uint64_t seed, bool monotone) {
  constexpr int kSteps = 2400;
  constexpr double kBeforeAll = -1e6;
  Rng rng{seed};
  StepFunction ref;
  TimelineProfile flat;
  struct Live {
    double lo, hi, delta;
  };
  std::vector<Live> live;
  std::vector<double> instants;
  double now = 0.0;
  double floor_h = -std::numeric_limits<double>::infinity();  // last retire horizon
  int on_existing = 0;
  int before_first = 0;
  for (int step = 0; step < kSteps; ++step) {
    const std::size_t count_before = flat.breakpoint_count();
    const auto times = flat.merged_times_view();
    double lo, hi, delta;
    const bool release = !live.empty() && rng.uniform01() < 0.3;
    if (release) {
      // Zero-sum release of a live interval.
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      lo = live[k].lo;
      hi = live[k].hi;
      delta = -live[k].delta;
      live[k] = live.back();
      live.pop_back();
    } else {
      if (monotone) {
        if (rng.uniform01() < 0.9) now += rng.uniform(0.0, 2.0);
        lo = now;
      } else {
        lo = rng.uniform01() < 0.05 && !times.empty() ? times.front() - rng.uniform(1, 10)
                                                      : rng.uniform(0, 900);
        if (rng.uniform01() < 0.15 && !instants.empty()) {
          lo = rng.pick(std::span<const double>{instants});
        }
      }
      hi = lo + rng.uniform(0.25, 60);
      if (rng.uniform01() < 0.25 && !instants.empty()) {
        const double snapped = rng.pick(std::span<const double>{instants});
        if (snapped > lo) hi = snapped;
      }
      delta = rng.uniform(0.1, 4.0);
      if (monotone || rng.uniform01() < 0.5) live.push_back(Live{lo, hi, delta});
      instants.push_back(lo);
      instants.push_back(hi);
    }
    if (times.empty() || lo < times.front()) ++before_first;
    ref.add(at(lo), at(hi), delta);
    flat.add(at(lo), at(hi), delta);

    // The reference's maximum over [just below floor_h, upto), or over
    // (-inf, upto) before any retire.
    const auto ref_max_to = [&](double upto) {
      return floor_h == -std::numeric_limits<double>::infinity()
                 ? ref.max_over(at(kBeforeAll), at(upto))
                 : ref.max_over(at(std::nextafter(floor_h, kBeforeAll)), at(upto));
    };
    const double far = std::max(now, 900.0) + 1e3;
    EXPECT_EQ(ref_max_to(far), flat.global_max()) << "step=" << step << " seed=" << seed;
    const double anchor_hi = std::max(lo, floor_h) + rng.uniform(0.5, 80);
    EXPECT_EQ(ref_max_to(anchor_hi), flat.max_over(at(kBeforeAll), at(anchor_hi)))
        << "step=" << step << " seed=" << seed;
    const double wlo = monotone ? rng.uniform(std::max(floor_h, now - 50), now + 50)
                                : rng.uniform(-10, 960);
    const double whi = wlo + rng.uniform(0.25, 80);
    EXPECT_EQ(ref.value_at(at(wlo)), flat.value_at(at(wlo))) << "step=" << step;
    EXPECT_EQ(ref.max_over(at(wlo), at(whi)), flat.max_over(at(wlo), at(whi)))
        << "step=" << step << " seed=" << seed;
    EXPECT_EQ(ref.integral(at(wlo), at(whi)), flat.integral(at(wlo), at(whi)))
        << "step=" << step << " seed=" << seed;
    if (!release && flat.breakpoint_count() < count_before + 2) ++on_existing;

    if (step % 400 == 399) {
      if (monotone) {
        floor_h = now;
        for (const Live& l : live) floor_h = std::min(floor_h, l.lo);
        flat.retire_before(at(floor_h));
      } else {
        ref.compact();
        flat.compact();
      }
    }
  }
  EXPECT_GT(on_existing, 0) << "no new interval landed on an existing instant";
  EXPECT_GT(before_first, monotone ? 0 : 10)
      << "too few adds before the first breakpoint";
  if (monotone) {
    EXPECT_GT(floor_h, 0.0) << "nothing was retired";
  }
}

TEST_P(TimelineProfileDifferential, InterleavedReleaseMonotoneAddsMatchStepFunction) {
  expect_interleaved_identical(GetParam(), /*monotone=*/true);
}

TEST_P(TimelineProfileDifferential, InterleavedRandomAddsMatchStepFunction) {
  expect_interleaved_identical(GetParam(), /*monotone=*/false);
}

/// Batches of 1–20 adds — 2 to 40 pending events, on both sides of the
/// in-place sort cutoff — on a half-second grid, so many deltas land on one
/// instant and must accumulate in call order. Runs of windowed-only queries
/// leave the running max stale across several merges before a global_max or
/// a left-anchored max_over extends it, and retire_before cuts in between.
/// After retire_before(h) the whole-axis and left-anchored maxima are
/// compared with the reference's maximum from just below h, as above.
TEST_P(TimelineProfileDifferential, BatchedAddsWithLazyRunningMaxMatchStepFunction) {
  constexpr double kBeforeAll = -1e6;
  const std::uint64_t seed = GetParam();
  Rng rng{seed};
  StepFunction ref;
  TimelineProfile flat;
  const auto grid = [&](double lo, double hi) {
    return std::floor(rng.uniform(lo, hi) * 2.0) / 2.0;
  };
  double now = 0.0;
  double floor_h = kBeforeAll;  // last retire horizon
  const auto ref_max_to = [&](double upto) {
    return ref.max_over(at(std::nextafter(floor_h, kBeforeAll)), at(upto));
  };
  int large_batches = 0;
  int global_checks = 0;
  for (int round = 0; round < 400; ++round) {
    now += grid(0.0, 3.0);
    const auto adds = rng.uniform_int(1, 20);
    if (adds > 16) ++large_batches;
    for (std::int64_t k = 0; k < adds; ++k) {
      const double lo = now + grid(0.0, 30.0);
      const double hi = lo + 0.5 + grid(0.0, 20.0);
      // Loads grow with the round, so the running max keeps rising in the
      // freshly merged tail, where a stale cache would show.
      const double delta = rng.uniform01() < 0.25
                               ? -rng.uniform(0.1, 2.0)
                               : rng.uniform(0.1, 4.0) * (1.0 + round / 20.0);
      ref.add(at(lo), at(hi), delta);
      flat.add(at(lo), at(hi), delta);
    }
    // Windowed queries only: they never need the running max.
    for (int q = 0; q < 3; ++q) {
      const double wlo = std::max(floor_h, now - grid(0.0, 20.0) + 0.25);
      const double whi = wlo + 0.25 + grid(0.0, 40.0);
      EXPECT_EQ(ref.value_at(at(wlo)), flat.value_at(at(wlo)))
          << "round=" << round << " seed=" << seed;
      EXPECT_EQ(ref.max_over(at(wlo), at(whi)), flat.max_over(at(wlo), at(whi)))
          << "round=" << round << " seed=" << seed;
      EXPECT_EQ(ref.integral(at(wlo), at(whi)), flat.integral(at(wlo), at(whi)))
          << "round=" << round << " seed=" << seed;
    }
    if (rng.uniform01() < 0.2) {
      ++global_checks;
      const double hi = now + grid(0.0, 60.0);
      EXPECT_EQ(ref_max_to(hi), flat.max_over(at(kBeforeAll), at(hi)))
          << "round=" << round << " seed=" << seed;
      EXPECT_EQ(ref_max_to(now + 1e3), flat.global_max())
          << "round=" << round << " seed=" << seed;
    }
    if (round % 60 == 59) {
      floor_h = now;
      flat.retire_before(at(floor_h));
    }
  }
  EXPECT_EQ(ref_max_to(now + 1e3), flat.global_max()) << "seed=" << seed;
  EXPECT_GT(large_batches, 0) << "no batch went past the in-place sort";
  EXPECT_GT(global_checks, 40);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, TimelineProfileDifferential,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 42, 1234));

// ---------------------------------------------------------------------------
// Satellite: cache-rebuild property — recompiling (merging more batches,
// compacting) never changes observable values beyond the compact tolerance,
// and compact is idempotent.
// ---------------------------------------------------------------------------

class TimelineProfileRebuild : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimelineProfileRebuild, CompactPreservesValuesAndIsIdempotent) {
  Rng rng{GetParam()};
  TimelineProfile f;
  std::vector<std::pair<double, double>> windows;
  for (int k = 0; k < 100; ++k) {
    const double lo = rng.uniform(0, 500);
    const double hi = lo + rng.uniform(0.5, 50);
    const double delta = rng.uniform(0.1, 5.0);
    f.add(at(lo), at(hi), delta);
    if (rng.uniform01() < 0.5) f.add(at(lo), at(hi), -delta);
    windows.emplace_back(lo, hi);
  }
  std::vector<double> before_values;
  std::vector<double> before_integrals;
  for (const auto& [lo, hi] : windows) {
    before_values.push_back(f.value_at(at(lo)));
    before_integrals.push_back(f.integral(at(lo), at(hi)));
  }
  const double before_max = f.global_max();

  f.compact(1e-9);
  for (std::size_t k = 0; k < windows.size(); ++k) {
    const auto& [lo, hi] = windows[k];
    EXPECT_NEAR(f.value_at(at(lo)), before_values[k], 1e-6);
    EXPECT_NEAR(f.integral(at(lo), at(hi)), before_integrals[k], 1e-4);
  }
  EXPECT_NEAR(f.global_max(), before_max, 1e-6);

  // Idempotent: a second compact changes nothing at all.
  const auto bp_once = f.breakpoints();
  const double max_once = f.global_max();
  f.compact(1e-9);
  const auto bp_twice = f.breakpoints();
  ASSERT_EQ(bp_once.size(), bp_twice.size());
  for (std::size_t k = 0; k < bp_once.size(); ++k) EXPECT_EQ(bp_once[k], bp_twice[k]);
  EXPECT_EQ(f.global_max(), max_once);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, TimelineProfileRebuild,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace gridbw
