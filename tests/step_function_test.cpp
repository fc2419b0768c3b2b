// Unit and property tests for the piecewise-constant allocation profile.

#include "support/step_function.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/random.hpp"

namespace gridbw {
namespace {

TimePoint at(double s) { return TimePoint::at_seconds(s); }

TEST(StepFunction, EmptyIsZeroEverywhere) {
  StepFunction f;
  EXPECT_TRUE(f.empty());
  EXPECT_DOUBLE_EQ(f.value_at(at(0)), 0.0);
  EXPECT_DOUBLE_EQ(f.max_over(at(0), at(100)), 0.0);
  EXPECT_DOUBLE_EQ(f.global_max(), 0.0);
  EXPECT_DOUBLE_EQ(f.integral(at(0), at(100)), 0.0);
}

TEST(StepFunction, SingleInterval) {
  StepFunction f;
  f.add(at(10), at(20), 5.0);
  EXPECT_DOUBLE_EQ(f.value_at(at(9.99)), 0.0);
  EXPECT_DOUBLE_EQ(f.value_at(at(10)), 5.0);   // right-continuous
  EXPECT_DOUBLE_EQ(f.value_at(at(15)), 5.0);
  EXPECT_DOUBLE_EQ(f.value_at(at(20)), 0.0);   // half-open
}

TEST(StepFunction, OverlappingIntervalsStack) {
  StepFunction f;
  f.add(at(0), at(10), 1.0);
  f.add(at(5), at(15), 2.0);
  EXPECT_DOUBLE_EQ(f.value_at(at(2)), 1.0);
  EXPECT_DOUBLE_EQ(f.value_at(at(7)), 3.0);
  EXPECT_DOUBLE_EQ(f.value_at(at(12)), 2.0);
  EXPECT_DOUBLE_EQ(f.global_max(), 3.0);
}

TEST(StepFunction, NegativeDeltaReleases) {
  StepFunction f;
  f.add(at(0), at(10), 4.0);
  f.add(at(0), at(10), -4.0);
  EXPECT_DOUBLE_EQ(f.value_at(at(5)), 0.0);
  EXPECT_DOUBLE_EQ(f.global_max(), 0.0);
}

TEST(StepFunction, EmptyOrInvertedIntervalIsNoop) {
  StepFunction f;
  f.add(at(5), at(5), 3.0);
  f.add(at(6), at(2), 3.0);
  EXPECT_TRUE(f.empty());
}

TEST(StepFunction, MaxOverWindows) {
  StepFunction f;
  f.add(at(0), at(10), 1.0);
  f.add(at(4), at(6), 2.0);
  EXPECT_DOUBLE_EQ(f.max_over(at(0), at(4)), 1.0);
  EXPECT_DOUBLE_EQ(f.max_over(at(0), at(10)), 3.0);
  EXPECT_DOUBLE_EQ(f.max_over(at(6), at(10)), 1.0);
  EXPECT_DOUBLE_EQ(f.max_over(at(10), at(20)), 0.0);
  // Value holding at the window's left edge counts.
  EXPECT_DOUBLE_EQ(f.max_over(at(5), at(5.5)), 3.0);
}

TEST(StepFunction, MaxOverEmptyWindowIsZero) {
  StepFunction f;
  f.add(at(0), at(10), 7.0);
  EXPECT_DOUBLE_EQ(f.max_over(at(5), at(5)), 0.0);
}

TEST(StepFunction, IntegralOfRectangles) {
  StepFunction f;
  f.add(at(0), at(10), 2.0);   // area 20
  f.add(at(5), at(10), 3.0);   // area 15
  EXPECT_DOUBLE_EQ(f.integral(at(0), at(10)), 35.0);
  EXPECT_DOUBLE_EQ(f.integral(at(0), at(5)), 10.0);
  EXPECT_DOUBLE_EQ(f.integral(at(2.5), at(7.5)), 5.0 + 2.5 * 3.0 + 2.5 * 2.0);
  EXPECT_DOUBLE_EQ(f.integral(at(-10), at(0)), 0.0);
  EXPECT_DOUBLE_EQ(f.integral(at(20), at(30)), 0.0);
}

TEST(StepFunction, IntegralPartiallyBeforeFunction) {
  StepFunction f;
  f.add(at(10), at(20), 1.0);
  EXPECT_DOUBLE_EQ(f.integral(at(0), at(15)), 5.0);
  EXPECT_DOUBLE_EQ(f.integral(at(15), at(100)), 5.0);
}

TEST(StepFunction, BreakpointsAreChangePoints) {
  StepFunction f;
  f.add(at(1), at(3), 1.0);
  f.add(at(2), at(3), 1.0);  // deltas at 3 accumulate
  const auto pts = f.breakpoints();
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_EQ(pts[0], at(1));
  EXPECT_EQ(pts[1], at(2));
  EXPECT_EQ(pts[2], at(3));
}

TEST(StepFunction, CompactRemovesCancelledBreakpoints) {
  StepFunction f;
  f.add(at(1), at(2), 3.0);
  f.add(at(1), at(2), -3.0);
  f.add(at(5), at(6), 1.0);
  f.compact();
  const auto pts = f.breakpoints();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0], at(5));
}

// ---------------------------------------------------------------------------
// Property test: random interval stacks vs a brute-force dense evaluation.
// ---------------------------------------------------------------------------

struct Interval {
  double lo, hi, delta;
};

double brute_value(const std::vector<Interval>& xs, double t) {
  double acc = 0.0;
  for (const auto& iv : xs) {
    if (iv.lo <= t && t < iv.hi) acc += iv.delta;
  }
  return acc;
}

class StepFunctionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StepFunctionProperty, AgreesWithBruteForceOnRandomStacks) {
  Rng rng{GetParam()};
  std::vector<Interval> xs;
  StepFunction f;
  for (int k = 0; k < 40; ++k) {
    const double lo = rng.uniform(0, 90);
    const double hi = lo + rng.uniform(0.5, 15);
    const double delta = rng.uniform(0.1, 4.0);
    xs.push_back({lo, hi, delta});
    f.add(at(lo), at(hi), delta);
  }
  // Values agree on a dense grid.
  for (double t = -1.0; t <= 110.0; t += 0.73) {
    EXPECT_NEAR(f.value_at(at(t)), brute_value(xs, t), 1e-9) << "t=" << t;
  }
  // max_over agrees with a dense scan (grid includes all breakpoints).
  std::vector<double> grid;
  for (const auto& iv : xs) {
    grid.push_back(iv.lo);
    grid.push_back(iv.hi);
  }
  const double w_lo = 10.0, w_hi = 60.0;
  double brute_max = brute_value(xs, w_lo);
  for (double g : grid) {
    if (g >= w_lo && g < w_hi) brute_max = std::max(brute_max, brute_value(xs, g));
  }
  EXPECT_NEAR(f.max_over(at(w_lo), at(w_hi)), brute_max, 1e-9);
  // Integral agrees with fine Riemann sum.
  double riemann = 0.0;
  const double dt = 0.01;
  for (double t = w_lo; t < w_hi; t += dt) riemann += brute_value(xs, t) * dt;
  EXPECT_NEAR(f.integral(at(w_lo), at(w_hi)), riemann, 0.5);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, StepFunctionProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Property test: compaction never changes observable values beyond its
// tolerance, and is idempotent.
// ---------------------------------------------------------------------------

class StepFunctionCompactProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StepFunctionCompactProperty, CompactPreservesValuesAndIsIdempotent) {
  Rng rng{GetParam()};
  StepFunction f;
  std::vector<std::pair<double, double>> windows;
  for (int k = 0; k < 120; ++k) {
    const double lo = rng.uniform(0, 500);
    const double hi = lo + rng.uniform(0.5, 50);
    const double delta = rng.uniform(0.1, 5.0);
    f.add(at(lo), at(hi), delta);
    // Half the adds are reversed, leaving ~0 deltas for compact to drop.
    if (rng.uniform01() < 0.5) f.add(at(lo), at(hi), -delta);
    windows.emplace_back(lo, hi);
  }
  std::vector<double> values, integrals;
  for (const auto& [lo, hi] : windows) {
    values.push_back(f.value_at(at(lo)));
    integrals.push_back(f.integral(at(lo), at(hi)));
  }
  const double before_max = f.global_max();

  f.compact(1e-9);
  for (std::size_t k = 0; k < windows.size(); ++k) {
    const auto& [lo, hi] = windows[k];
    EXPECT_NEAR(f.value_at(at(lo)), values[k], 1e-6);
    EXPECT_NEAR(f.integral(at(lo), at(hi)), integrals[k], 1e-4);
  }
  EXPECT_NEAR(f.global_max(), before_max, 1e-6);

  // Idempotent: compacting again is a no-op on every observable.
  const auto bp_once = f.breakpoints();
  const double max_once = f.global_max();
  f.compact(1e-9);
  const auto bp_twice = f.breakpoints();
  ASSERT_EQ(bp_once.size(), bp_twice.size());
  for (std::size_t k = 0; k < bp_once.size(); ++k) EXPECT_EQ(bp_once[k], bp_twice[k]);
  EXPECT_EQ(f.global_max(), max_once);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, StepFunctionCompactProperty,
                         ::testing::Values(21, 42, 63, 84));

}  // namespace
}  // namespace gridbw
