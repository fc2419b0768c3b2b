// Differential tests for the malleable engines' execution-rate kernel:
// heuristics::water_fill (active list compacted per round, per-port counts
// decremented on freeze) must produce exactly the doubles of the literal
// per-round recount in tests/support — compared bit for bit, on every rate.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "heuristics/water_fill.hpp"
#include "support/water_fill_oracle.hpp"
#include "util/random.hpp"

namespace gridbw::heuristics {
namespace {

constexpr double kGBps = 1e9;

struct FillCase {
  std::vector<FillFlow> flows;
  std::vector<double> in_capacity;
  std::vector<double> out_capacity;
};

/// Runs the production fill twice — once on fresh scratch, once on scratch
/// shared across every case of the test (as FluidBook reuses it) — and
/// compares both to the oracle bit for bit.
void expect_matches_oracle(const FillCase& c, FillScratch& shared) {
  const std::vector<double> expected =
      oracle::water_fill(c.flows, c.in_capacity, c.out_capacity);
  std::vector<double> fresh_rates;
  FillScratch fresh;
  water_fill(c.flows, c.in_capacity, c.out_capacity, fresh_rates, fresh);
  std::vector<double> reused_rates(3, -1.0);
  water_fill(c.flows, c.in_capacity, c.out_capacity, reused_rates, shared);
  ASSERT_EQ(fresh_rates.size(), expected.size());
  ASSERT_EQ(reused_rates.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fresh_rates[k]),
              std::bit_cast<std::uint64_t>(expected[k]))
        << "flow " << k << " of " << expected.size() << ": " << fresh_rates[k]
        << " vs oracle " << expected[k];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reused_rates[k]),
              std::bit_cast<std::uint64_t>(expected[k]))
        << "flow " << k << " (reused scratch)";
  }
}

/// n random flows on an in_ports x out_ports platform. Guarantees are sized
/// so ports range from idle to oversubscribed; maxima are drawn from a small
/// set about a third of the time, so exact max ties are common, and one flow
/// in eight has guarantee == max.
FillCase random_case(Rng& rng, std::size_t n, std::size_t in_ports, std::size_t out_ports) {
  FillCase c;
  for (std::size_t p = 0; p < in_ports; ++p) {
    c.in_capacity.push_back(rng.bernoulli(0.5) ? kGBps : kGBps * rng.uniform(0.5, 2.0));
  }
  for (std::size_t p = 0; p < out_ports; ++p) {
    c.out_capacity.push_back(rng.bernoulli(0.5) ? kGBps : kGBps * rng.uniform(0.5, 2.0));
  }
  const double per_port =
      static_cast<double>(n) / static_cast<double>(std::min(in_ports, out_ports));
  const double g_scale = kGBps / std::max(1.0, per_port);
  for (std::size_t k = 0; k < n; ++k) {
    FillFlow f{};
    f.ingress = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(in_ports) - 1));
    f.egress = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(out_ports) - 1));
    f.guarantee = g_scale * rng.uniform(0.01, 1.5);
    if (rng.bernoulli(0.125)) {
      f.max = f.guarantee;
    } else if (rng.bernoulli(0.35)) {
      f.max = std::max(f.guarantee, 1e8 * static_cast<double>(rng.uniform_int(1, 5)));
    } else {
      f.max = f.guarantee * rng.uniform(1.0, 20.0);
    }
    c.flows.push_back(f);
  }
  return c;
}

TEST(WaterFillDifferential, FlowCountsAcrossPlatformSizes) {
  FillScratch shared;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng{seed};
    for (const std::size_t n : {0u, 1u, 2u, 31u, 50u, 256u}) {
      for (std::size_t ports = 1; ports <= 10; ++ports) {
        SCOPED_TRACE(testing::Message() << "seed=" << seed << " n=" << n
                                        << " ports=" << ports << "x" << ports);
        expect_matches_oracle(random_case(rng, n, ports, ports), shared);
      }
    }
  }
}

TEST(WaterFillDifferential, RandomisedAsymmetricPlatforms) {
  FillScratch shared;
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    Rng rng{seed};
    for (int trial = 0; trial < 60; ++trial) {
      const auto n = static_cast<std::size_t>(rng.uniform_int(0, 120));
      const auto in_ports = static_cast<std::size_t>(rng.uniform_int(1, 10));
      const auto out_ports = static_cast<std::size_t>(rng.uniform_int(1, 10));
      SCOPED_TRACE(testing::Message() << "seed=" << seed << " trial=" << trial);
      expect_matches_oracle(random_case(rng, n, in_ports, out_ports), shared);
    }
  }
}

TEST(WaterFillDifferential, ExactMaxRateTies) {
  // Every flow on one ingress shares a MaxRate, so several freeze on the
  // same round while their neighbours keep rising through the other port.
  FillScratch shared;
  FillCase c{{}, {kGBps, kGBps}, {kGBps, 0.4 * kGBps, kGBps}};
  for (std::size_t k = 0; k < 12; ++k) {
    const double g = 1e7 * static_cast<double>(k % 4 + 1);
    c.flows.push_back(FillFlow{k % 2, k % 3, g, k % 2 == 0 ? 1e8 : 2.5e8});
  }
  expect_matches_oracle(c, shared);
  // All maxima equal and all guarantees equal: one round freezes everyone.
  FillCase flat{{}, {kGBps}, {kGBps}};
  for (std::size_t k = 0; k < 7; ++k) flat.flows.push_back(FillFlow{0, 0, 1e7, 1e8});
  expect_matches_oracle(flat, shared);
  const std::vector<double> rates =
      oracle::water_fill(flat.flows, flat.in_capacity, flat.out_capacity);
  for (const double r : rates) EXPECT_EQ(r, 1e8);
}

TEST(WaterFillDifferential, GuaranteeEqualsMax) {
  FillScratch shared;
  FillCase all{{}, {kGBps, kGBps}, {kGBps}};
  for (std::size_t k = 0; k < 5; ++k) {
    const double g = 3e7 * static_cast<double>(k + 1);
    all.flows.push_back(FillFlow{k % 2, 0, g, g});
  }
  expect_matches_oracle(all, shared);
  // Mixed: the pinned flows freeze at once and the others share what is left.
  FillCase mixed = all;
  mixed.flows.push_back(FillFlow{0, 0, 1e7, 9e8});
  mixed.flows.push_back(FillFlow{1, 0, 2e7, 9e8});
  expect_matches_oracle(mixed, shared);
}

TEST(WaterFillDifferential, PortsSaturatedByGuaranteesAlone) {
  FillScratch shared;
  // Ingress 0 is exactly full of guarantees, ingress 1 oversubscribed;
  // their flows freeze in round one while ingress 2's keep filling egress.
  FillCase c{{}, {kGBps, kGBps, kGBps}, {kGBps, kGBps}};
  for (std::size_t k = 0; k < 4; ++k) c.flows.push_back(FillFlow{0, k % 2, 2.5e8, 9e8});
  for (std::size_t k = 0; k < 3; ++k) c.flows.push_back(FillFlow{1, k % 2, 4e8, 9e8});
  for (std::size_t k = 0; k < 3; ++k) c.flows.push_back(FillFlow{2, k % 2, 1e7, 9e8});
  expect_matches_oracle(c, shared);
  // An egress saturated by guarantees from several ingresses.
  FillCase out{{}, {kGBps, kGBps}, {kGBps, kGBps}};
  out.flows = {FillFlow{0, 0, 5e8, 9e8}, FillFlow{1, 0, 5e8, 9e8},
               FillFlow{0, 1, 1e8, 9e8}, FillFlow{1, 1, 1e8, 9e8}};
  expect_matches_oracle(out, shared);
}

TEST(WaterFillDifferential, HeadroomInsideEps) {
  // Ingress 0 holds 4e8 B/s of guarantees. Headroom inside the 1e-6 B/s
  // freeze tolerance freezes its flows at their guarantees; headroom past it
  // lets them rise. Around the tolerance itself the rounding of 4e8 + h
  // decides, and only the oracle says which way.
  FillScratch shared;
  for (const double headroom : {0.0, 0.5e-6, 1e-6, 2e-6, 1e-3}) {
    SCOPED_TRACE(testing::Message() << "headroom=" << headroom);
    const double cap = 4e8 + headroom;
    FillCase c{{}, {cap, kGBps}, {kGBps, kGBps}};
    c.flows = {FillFlow{0, 0, 1e8, 9e8}, FillFlow{0, 1, 3e8, 9e8},
               FillFlow{1, 0, 1e8, 9e8}, FillFlow{1, 1, 2e8, 5e8}};
    expect_matches_oracle(c, shared);
    const std::vector<double> rates =
        oracle::water_fill(c.flows, c.in_capacity, c.out_capacity);
    if (headroom <= 0.5e-6) {
      EXPECT_EQ(rates[0], 1e8);
    } else if (headroom >= 2e-6) {
      EXPECT_GT(rates[0], 1e8);
    }
  }
}

}  // namespace
}  // namespace gridbw::heuristics
