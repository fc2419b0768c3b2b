// Unit tests for the allocation books, plus a differential check of
// NetworkLedger::fits against a per-port StepFunction oracle.

#include "core/ledger.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "support/step_function.hpp"
#include "util/random.hpp"
#include "workload/generator.hpp"
#include "workload/load.hpp"
#include "workload/scenario.hpp"

namespace gridbw {
namespace {

TimePoint at(double s) { return TimePoint::at_seconds(s); }
Bandwidth mbps(double m) { return Bandwidth::megabytes_per_second(m); }

class NetworkLedgerTest : public ::testing::Test {
 protected:
  Network net_ = Network::uniform(2, 2, mbps(100));
  NetworkLedger ledger_{net_};
};

TEST_F(NetworkLedgerTest, FreshLedgerFitsUpToCapacity) {
  EXPECT_TRUE(ledger_.fits(IngressId{0}, EgressId{0}, at(0), at(10), mbps(100)));
  EXPECT_FALSE(ledger_.fits(IngressId{0}, EgressId{0}, at(0), at(10), mbps(101)));
}

TEST_F(NetworkLedgerTest, ReserveConsumesBothPorts) {
  ledger_.reserve(IngressId{0}, EgressId{1}, at(0), at(10), mbps(60));
  EXPECT_FALSE(ledger_.fits(IngressId{0}, EgressId{0}, at(5), at(8), mbps(50)));
  EXPECT_FALSE(ledger_.fits(IngressId{1}, EgressId{1}, at(5), at(8), mbps(50)));
  EXPECT_TRUE(ledger_.fits(IngressId{1}, EgressId{0}, at(5), at(8), mbps(100)));
  EXPECT_TRUE(ledger_.fits(IngressId{0}, EgressId{0}, at(5), at(8), mbps(40)));
}

TEST_F(NetworkLedgerTest, DisjointTimesDoNotConflict) {
  ledger_.reserve(IngressId{0}, EgressId{0}, at(0), at(10), mbps(100));
  EXPECT_TRUE(ledger_.fits(IngressId{0}, EgressId{0}, at(10), at(20), mbps(100)));
}

TEST_F(NetworkLedgerTest, ReleaseRestoresHeadroom) {
  ledger_.reserve(IngressId{0}, EgressId{0}, at(0), at(10), mbps(80));
  EXPECT_FALSE(ledger_.fits(IngressId{0}, EgressId{0}, at(0), at(10), mbps(30)));
  ledger_.release(IngressId{0}, EgressId{0}, at(0), at(10), mbps(80));
  EXPECT_TRUE(ledger_.fits(IngressId{0}, EgressId{0}, at(0), at(10), mbps(100)));
}

TEST_F(NetworkLedgerTest, ExactFillAcceptedWithinTolerance) {
  ledger_.reserve(IngressId{0}, EgressId{0}, at(0), at(10), mbps(60));
  ledger_.reserve(IngressId{0}, EgressId{0}, at(0), at(10), mbps(40));
  // Sum is exactly the capacity; one more byte/s must fail, zero must fit.
  EXPECT_TRUE(ledger_.fits(IngressId{0}, EgressId{0}, at(0), at(10), Bandwidth::zero()));
  EXPECT_FALSE(ledger_.fits(IngressId{0}, EgressId{0}, at(0), at(10), mbps(1)));
}

TEST_F(NetworkLedgerTest, ProfilesAreExposedForInspection) {
  ledger_.reserve(IngressId{1}, EgressId{0}, at(2), at(4), mbps(10));
  EXPECT_DOUBLE_EQ(ledger_.ingress_profile(IngressId{1}).value_at(at(3)), 1e7);
  EXPECT_DOUBLE_EQ(ledger_.egress_profile(EgressId{0}).value_at(at(3)), 1e7);
  EXPECT_DOUBLE_EQ(ledger_.ingress_profile(IngressId{0}).value_at(at(3)), 0.0);
}

/// Reference book for NetworkLedger: one map-based StepFunction per port,
/// mirroring every reserve/release, and the capacity test written out as
/// "peak over the window plus the rate is approx_le the capacity".
class StepFunctionLedger {
 public:
  explicit StepFunctionLedger(const Network& network)
      : network_{&network},
        ingress_(network.ingress_count()),
        egress_(network.egress_count()) {}

  void add(IngressId i, EgressId e, TimePoint t0, TimePoint t1, double delta) {
    ingress_[i.value].add(t0, t1, delta);
    egress_[e.value].add(t0, t1, delta);
  }

  [[nodiscard]] bool fits(IngressId i, EgressId e, TimePoint t0, TimePoint t1,
                          Bandwidth bw) const {
    const double rate = bw.to_bytes_per_second();
    const double in_peak = ingress_[i.value].max_over(t0, t1);
    const double out_peak = egress_[e.value].max_over(t0, t1);
    return approx_le(Bandwidth::bytes_per_second(in_peak + rate),
                     network_->ingress_capacity(i)) &&
           approx_le(Bandwidth::bytes_per_second(out_peak + rate),
                     network_->egress_capacity(e));
  }

 private:
  const Network* network_;
  std::vector<StepFunction> ingress_;
  std::vector<StepFunction> egress_;
};

/// Drives an FCFS-style admit/release sequence over `requests` through the
/// ledger and the oracle and checks that every probe decides identically.
/// A third of the admissions are released again right away.
void expect_fits_matches_oracle(const Network& network,
                                std::span<const Request> requests) {
  NetworkLedger ledger{network};
  StepFunctionLedger oracle{network};
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  std::size_t disagreements = 0;
  for (const Request& r : requests) {
    if (!(r.deadline > r.release)) continue;
    const Bandwidth bw = r.min_rate();
    const bool got = ledger.fits(r.ingress, r.egress, r.release, r.deadline, bw);
    if (got != oracle.fits(r.ingress, r.egress, r.release, r.deadline, bw)) {
      ++disagreements;
    }
    if (!got) {
      ++rejected;
      continue;
    }
    ledger.reserve(r.ingress, r.egress, r.release, r.deadline, bw);
    oracle.add(r.ingress, r.egress, r.release, r.deadline, bw.to_bytes_per_second());
    if (++admitted % 3 == 0) {
      ledger.release(r.ingress, r.egress, r.release, r.deadline, bw);
      oracle.add(r.ingress, r.egress, r.release, r.deadline, -bw.to_bytes_per_second());
    }
  }
  EXPECT_EQ(disagreements, 0u);
  EXPECT_GT(admitted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(NetworkLedgerProbeTest, FitsMatchesPureScansOnFig4Workloads) {
  for (const std::uint64_t seed : {11u, 4242u, 987654321u}) {
    workload::Scenario scenario =
        workload::paper_rigid(Duration::seconds(1), Duration::seconds(1));
    scenario.spec.mean_interarrival =
        workload::interarrival_for_load(scenario.spec, scenario.network, 3.0);
    scenario.spec.horizon = scenario.spec.mean_interarrival * 10000.0;
    Rng rng{seed};
    auto requests = workload::generate(scenario.spec, rng);
    requests.resize(std::min<std::size_t>(requests.size(), 10000));
    ASSERT_GT(requests.size(), 1000u) << "seed=" << seed;
    SCOPED_TRACE(seed);
    expect_fits_matches_oracle(scenario.network, requests);
  }
}

TEST(NetworkLedgerProbeTest, EffectivelyZeroCapacityPortsNeverAdmit) {
  // Network requires positive capacities, so "zero-capacity port" means a
  // capacity below the admission tolerance (1 byte/s): nothing above the
  // tolerance can ever fit, whatever load the port already carries.
  const Network net = Network::uniform(2, 2, Bandwidth::bytes_per_second(1e-3));
  NetworkLedger ledger{net};
  for (int k = 0; k < 200; ++k) {
    ledger.reserve(IngressId{0}, EgressId{0}, at(k), at(k + 1),
                   Bandwidth::bytes_per_second(1e-6));
  }
  for (int k = 0; k < 500; ++k) {
    EXPECT_FALSE(ledger.fits(IngressId{0}, EgressId{0}, at(k % 100), at(k % 100 + 5),
                             Bandwidth::bytes_per_second(2.0)));
    EXPECT_TRUE(ledger.fits(IngressId{0}, EgressId{0}, at(k % 100), at(k % 100 + 5),
                            Bandwidth::zero()));
  }
}

TEST(NetworkLedgerProbeTest, SliverWindowsReleaseEqualsDeadline) {
  const Network net = Network::uniform(2, 2, mbps(100));
  NetworkLedger ledger{net};
  StepFunctionLedger oracle{net};
  for (int k = 0; k < 300; ++k) {
    ledger.reserve(IngressId{0}, EgressId{0}, at(k), at(k + 2), mbps(1));
    oracle.add(IngressId{0}, EgressId{0}, at(k), at(k + 2),
               mbps(1).to_bytes_per_second());
  }
  for (int k = 0; k < 300; ++k) {
    // Zero-width [t, t) windows (release == deadline) carry no load, and
    // one-ulp windows starting on a breakpoint see only the load there:
    // the ledger must agree with the oracle on both, for a rate that fits
    // next to the 2 MB/s standing load and for one that exceeds the port.
    const TimePoint mid = at(k + 0.5);
    const TimePoint on = at(k);
    const TimePoint ulp = at(std::nextafter(static_cast<double>(k), 1e9));
    for (const double mb : {50.0, 500.0}) {
      const Bandwidth bw = mbps(mb);
      for (const auto& [t0, t1] : {std::pair{mid, mid}, std::pair{on, ulp}}) {
        const bool want = oracle.fits(IngressId{0}, EgressId{0}, t0, t1, bw);
        EXPECT_EQ(ledger.fits(IngressId{0}, EgressId{0}, t0, t1, bw), want)
            << "t=" << t0.to_seconds() << " bw=" << mb;
        EXPECT_EQ(want, mb <= 99.0);
      }
    }
  }
}

class CounterLedgerTest : public ::testing::Test {
 protected:
  Network net_ = Network::uniform(2, 2, mbps(100));
  CounterLedger counters_{net_};
};

TEST_F(CounterLedgerTest, StartsEmpty) {
  EXPECT_EQ(counters_.allocated_ingress(IngressId{0}), Bandwidth::zero());
  EXPECT_EQ(counters_.allocated_egress(EgressId{1}), Bandwidth::zero());
  EXPECT_TRUE(counters_.fits(IngressId{0}, EgressId{0}, mbps(100)));
}

TEST_F(CounterLedgerTest, AllocateAndReclaim) {
  counters_.allocate(IngressId{0}, EgressId{1}, mbps(70));
  EXPECT_EQ(counters_.allocated_ingress(IngressId{0}), mbps(70));
  EXPECT_EQ(counters_.allocated_egress(EgressId{1}), mbps(70));
  EXPECT_FALSE(counters_.fits(IngressId{0}, EgressId{0}, mbps(40)));
  EXPECT_TRUE(counters_.fits(IngressId{0}, EgressId{0}, mbps(30)));
  counters_.reclaim(IngressId{0}, EgressId{1}, mbps(70));
  EXPECT_TRUE(counters_.fits(IngressId{0}, EgressId{1}, mbps(100)));
}

TEST_F(CounterLedgerTest, FitsChecksBothPorts) {
  counters_.allocate(IngressId{0}, EgressId{0}, mbps(90));
  EXPECT_FALSE(counters_.fits(IngressId{0}, EgressId{1}, mbps(20)));  // ingress full
  EXPECT_FALSE(counters_.fits(IngressId{1}, EgressId{0}, mbps(20)));  // egress full
  EXPECT_TRUE(counters_.fits(IngressId{1}, EgressId{1}, mbps(100)));
}

TEST_F(CounterLedgerTest, UtilizationWithHypotheticalRequest) {
  counters_.allocate(IngressId{0}, EgressId{0}, mbps(50));
  EXPECT_DOUBLE_EQ(counters_.ingress_util_with(IngressId{0}, mbps(25)), 0.75);
  EXPECT_DOUBLE_EQ(counters_.egress_util_with(EgressId{0}, mbps(50)), 1.0);
  EXPECT_DOUBLE_EQ(counters_.ingress_util_with(IngressId{1}, Bandwidth::zero()), 0.0);
}

TEST_F(CounterLedgerTest, ReclaimClampsDriftBelowZero) {
  counters_.allocate(IngressId{0}, EgressId{0}, mbps(10));
  counters_.reclaim(IngressId{0}, EgressId{0},
                    mbps(10) + Bandwidth::bytes_per_second(1e-4));
  EXPECT_GE(counters_.allocated_ingress(IngressId{0}).to_bytes_per_second(), 0.0);
  EXPECT_GE(counters_.allocated_egress(EgressId{0}).to_bytes_per_second(), 0.0);
}

TEST_F(CounterLedgerTest, DriftWithinToleranceStaysSilent) {
  // FP noise (sub-byte/s undershoot) is clamped without waking the anomaly
  // hook: no assertion, no kLedgerDriftClamped bump.
  obs::CounterRegistry registry;
  obs::Observer observer{nullptr, &registry};
  counters_.attach_observer(&observer);
  counters_.allocate(IngressId{0}, EgressId{0}, mbps(10));
  counters_.reclaim(IngressId{0}, EgressId{0},
                    mbps(10) + Bandwidth::bytes_per_second(0.5));
  EXPECT_EQ(registry.value(obs::Counter::kLedgerDriftClamped), 0u);
  EXPECT_EQ(counters_.allocated_ingress(IngressId{0}), Bandwidth::zero());
}

// Regression (ISSUE 6 satellite): reclaiming more than was allocated — a
// mismatched allocate/reclaim pair — used to be clamped to zero silently,
// hiding the accounting bug while leaving fits() optimistically biased for
// the rest of the run. It now trips a debug assertion; in assertion-free
// builds it bumps kLedgerDriftClamped on the attached observer instead.
TEST_F(CounterLedgerTest, ReclaimDriftBeyondToleranceIsLoud) {
  obs::CounterRegistry registry;
  obs::Observer observer{nullptr, &registry};
  counters_.attach_observer(&observer);
  counters_.allocate(IngressId{0}, EgressId{0}, mbps(10));
#ifndef NDEBUG
  EXPECT_DEATH(counters_.reclaim(IngressId{0}, EgressId{0}, mbps(20)),
               "drift beyond tolerance");
#else
  counters_.reclaim(IngressId{0}, EgressId{0}, mbps(20));
  // Both the ingress and the egress counter went 10 MB/s negative.
  EXPECT_EQ(registry.value(obs::Counter::kLedgerDriftClamped), 2u);
  // The clamp itself still holds: counters never stay negative.
  EXPECT_EQ(counters_.allocated_ingress(IngressId{0}), Bandwidth::zero());
  EXPECT_EQ(counters_.allocated_egress(EgressId{0}), Bandwidth::zero());
#endif
}

TEST_F(CounterLedgerTest, DriftHookDetachesWithNull) {
  obs::CounterRegistry registry;
  obs::Observer observer{nullptr, &registry};
  counters_.attach_observer(&observer);
  counters_.attach_observer(nullptr);
  counters_.allocate(IngressId{0}, EgressId{0}, mbps(10));
#ifdef NDEBUG
  counters_.reclaim(IngressId{0}, EgressId{0}, mbps(20));
  EXPECT_EQ(registry.value(obs::Counter::kLedgerDriftClamped), 0u);
#endif
}

TEST_F(CounterLedgerTest, ManyAllocReclaimCyclesStayExact) {
  for (int k = 0; k < 10000; ++k) {
    counters_.allocate(IngressId{0}, EgressId{0}, mbps(33.3));
    counters_.reclaim(IngressId{0}, EgressId{0}, mbps(33.3));
  }
  EXPECT_NEAR(counters_.allocated_ingress(IngressId{0}).to_bytes_per_second(), 0.0, 1.0);
  EXPECT_TRUE(counters_.fits(IngressId{0}, EgressId{0}, mbps(100)));
}

TEST_F(CounterLedgerTest, ResetZeroesInPlace) {
  counters_.allocate(IngressId{0}, EgressId{1}, mbps(70));
  counters_.allocate(IngressId{1}, EgressId{0}, mbps(40));
  counters_.reset();
  EXPECT_EQ(counters_.allocated_ingress(IngressId{0}), Bandwidth::zero());
  EXPECT_EQ(counters_.allocated_ingress(IngressId{1}), Bandwidth::zero());
  EXPECT_EQ(counters_.allocated_egress(EgressId{0}), Bandwidth::zero());
  EXPECT_EQ(counters_.allocated_egress(EgressId{1}), Bandwidth::zero());
}

}  // namespace
}  // namespace gridbw
