// Tests for the library's max-min fill, heuristics::water_fill. The
// differential cases compare it (active list compacted per round, per-port
// counts decremented on freeze) to the literal per-round recount in
// tests/support bit for bit, on every rate. The recount shares the kernel's
// freeze rule, so two properties are checked without it: the bottleneck
// condition of max-min fairness, and exact power-of-two scaling.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "heuristics/water_fill.hpp"
#include "support/water_fill_oracle.hpp"
#include "util/random.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

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
  // Ingress 0 holds 4e8 B/s of guarantees. Headroom inside the freeze
  // tolerance (kFillTol of the capacity, ~4e-4 B/s here) freezes its flows
  // at their guarantees; headroom past it lets them rise. Around the
  // tolerance itself the rounding of 4e8 + h decides, and only the oracle
  // says which way.
  FillScratch shared;
  const double tol = kFillTol * 4e8;
  for (const double headroom : {0.0, 0.5 * tol, tol, 2 * tol, 1e3 * tol}) {
    SCOPED_TRACE(testing::Message() << "headroom=" << headroom);
    const double cap = 4e8 + headroom;
    FillCase c{{}, {cap, kGBps}, {kGBps, kGBps}};
    c.flows = {FillFlow{0, 0, 1e8, 9e8}, FillFlow{0, 1, 3e8, 9e8},
               FillFlow{1, 0, 1e8, 9e8}, FillFlow{1, 1, 2e8, 5e8}};
    expect_matches_oracle(c, shared);
    const std::vector<double> rates =
        oracle::water_fill(c.flows, c.in_capacity, c.out_capacity);
    if (headroom <= 0.5 * tol) {
      EXPECT_EQ(rates[0], 1e8);
    } else if (headroom >= 2 * tol) {
      EXPECT_GT(rates[0], 1e8);
    }
  }
}

/// Live sets as a heavy-load malleable run holds them, on the paper platform
/// (10x10 ports at 1 GB/s, mean inter-arrival 0.5 s, slack up to 4):
/// requests admitted in release order at their MinRate while the guarantees
/// fit both ports, each held until its deadline. One snapshot every 97
/// arrivals once 200 flows are live; with `guarantees` false the same sets
/// start from 0, as the fluid baseline fills them.
std::vector<FillCase> heavy_load_live_sets(bool guarantees) {
  const workload::Scenario s =
      workload::paper_flexible(Duration::seconds(0.5), Duration::seconds(20000));
  Rng rng{3};
  const std::vector<Request> requests = workload::generate(s.spec, rng);
  const std::vector<double> in_capacity = to_bytes_per_second(s.network.ingress_capacities());
  const std::vector<double> out_capacity = to_bytes_per_second(s.network.egress_capacities());
  std::vector<double> in_held(in_capacity.size(), 0.0);
  std::vector<double> out_held(out_capacity.size(), 0.0);
  std::vector<const Request*> live;
  std::vector<FillCase> sets;
  for (std::size_t k = 0; k < requests.size() && sets.size() < 12; ++k) {
    const Request& r = requests[k];
    std::erase_if(live, [&](const Request* held) {
      if (held->deadline > r.release) return false;
      in_held[held->ingress.value] -= held->min_rate().to_bytes_per_second();
      out_held[held->egress.value] -= held->min_rate().to_bytes_per_second();
      return true;
    });
    const double g = r.min_rate().to_bytes_per_second();
    if (in_held[r.ingress.value] + g <= in_capacity[r.ingress.value] &&
        out_held[r.egress.value] + g <= out_capacity[r.egress.value]) {
      in_held[r.ingress.value] += g;
      out_held[r.egress.value] += g;
      live.push_back(&r);
    }
    if (k % 97 != 96 || live.size() < 200) continue;
    FillCase c{{}, in_capacity, out_capacity};
    for (const Request* held : live) {
      c.flows.push_back(FillFlow{held->ingress.value, held->egress.value,
                                 guarantees ? held->min_rate().to_bytes_per_second() : 0.0,
                                 held->max_rate.to_bytes_per_second()});
    }
    sets.push_back(std::move(c));
  }
  return sets;
}

/// The bottleneck condition that defines max-min fairness: every flow sits
/// at its MaxRate or on a port saturated within kFillTol, and no port is
/// loaded past its capacity. Loads are summed here, in span order, not read
/// from the fill.
void expect_max_min_fair(const FillCase& c, const std::vector<double>& rates) {
  std::vector<double> in_load(c.in_capacity.size(), 0.0);
  std::vector<double> out_load(c.out_capacity.size(), 0.0);
  for (std::size_t k = 0; k < c.flows.size(); ++k) {
    in_load[c.flows[k].ingress] += rates[k];
    out_load[c.flows[k].egress] += rates[k];
  }
  const auto saturated = [](double load, double capacity) {
    return capacity - load <= kFillTol * capacity;
  };
  std::size_t unfair = 0;
  for (std::size_t k = 0; k < c.flows.size(); ++k) {
    const FillFlow& f = c.flows[k];
    EXPECT_GE(rates[k], f.guarantee) << "flow " << k;
    if (rates[k] >= f.max - kFillTol * f.max ||
        saturated(in_load[f.ingress], c.in_capacity[f.ingress]) ||
        saturated(out_load[f.egress], c.out_capacity[f.egress])) {
      continue;
    }
    if (++unfair <= 3) {
      ADD_FAILURE() << "flow " << k << " of " << c.flows.size() << " at " << rates[k]
                    << " B/s, below its max " << f.max << " with "
                    << c.in_capacity[f.ingress] - in_load[f.ingress] << " B/s free in and "
                    << c.out_capacity[f.egress] - out_load[f.egress] << " B/s free out";
    }
  }
  EXPECT_EQ(unfair, 0u);
  for (std::size_t p = 0; p < in_load.size(); ++p) {
    EXPECT_LE(in_load[p], c.in_capacity[p] + kFillTol * c.in_capacity[p]) << "ingress " << p;
  }
  for (std::size_t p = 0; p < out_load.size(); ++p) {
    EXPECT_LE(out_load[p], c.out_capacity[p] + kFillTol * c.out_capacity[p]) << "egress " << p;
  }
}

TEST(WaterFill, MaxMinBottleneckCondition) {
  FillScratch scratch;
  std::vector<double> rates;
  for (const bool guarantees : {true, false}) {
    const std::vector<FillCase> sets = heavy_load_live_sets(guarantees);
    ASSERT_EQ(sets.size(), 12u);
    for (std::size_t s = 0; s < sets.size(); ++s) {
      SCOPED_TRACE(testing::Message() << "guarantees=" << guarantees << " set=" << s
                                      << " flows=" << sets[s].flows.size());
      water_fill(sets[s].flows, sets[s].in_capacity, sets[s].out_capacity, rates, scratch);
      expect_max_min_fair(sets[s], rates);
    }
  }
}

TEST(WaterFill, PowerOfTwoScalingIsExact) {
  // Multiplying every guarantee, max and capacity by 2^k is exact in binary
  // floating point, and so is every step of a fill whose tolerance is
  // relative: the scaled rates are the unscaled ones times 2^k, bit for bit.
  std::vector<FillCase> cases = heavy_load_live_sets(true);
  for (FillCase& c : heavy_load_live_sets(false)) cases.push_back(std::move(c));
  Rng rng{17};
  for (const std::size_t n : {1u, 31u, 256u}) cases.push_back(random_case(rng, n, 10, 10));
  FillScratch scratch;
  std::vector<double> base;
  std::vector<double> scaled;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const FillCase& c = cases[i];
    water_fill(c.flows, c.in_capacity, c.out_capacity, base, scratch);
    for (const int k : {-10, 10}) {
      SCOPED_TRACE(testing::Message() << "case=" << i << " k=" << k);
      FillCase big = c;
      for (FillFlow& f : big.flows) {
        f.guarantee = std::ldexp(f.guarantee, k);
        f.max = std::ldexp(f.max, k);
      }
      for (double& cap : big.in_capacity) cap = std::ldexp(cap, k);
      for (double& cap : big.out_capacity) cap = std::ldexp(cap, k);
      water_fill(big.flows, big.in_capacity, big.out_capacity, scaled, scratch);
      ASSERT_EQ(scaled.size(), base.size());
      std::size_t differ = 0;
      for (std::size_t f = 0; f < base.size(); ++f) {
        differ += std::bit_cast<std::uint64_t>(scaled[f]) !=
                  std::bit_cast<std::uint64_t>(std::ldexp(base[f], k));
      }
      EXPECT_EQ(differ, 0u) << "of " << base.size() << " flows";
    }
  }
}

}  // namespace
}  // namespace gridbw::heuristics
