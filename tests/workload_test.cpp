// Unit tests for workload generation, load accounting, traces, scenarios.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "workload/generator.hpp"
#include "workload/load.hpp"
#include "workload/scenario.hpp"
#include "workload/trace.hpp"
#include "workload/volume_law.hpp"

namespace gridbw::workload {
namespace {

TEST(VolumeLaw, PaperSupportHas19Values) {
  const VolumeLaw law = VolumeLaw::paper();
  ASSERT_EQ(law.support().size(), 19u);
  EXPECT_EQ(law.support().front(), Volume::gigabytes(10));
  EXPECT_EQ(law.support().back(), Volume::terabytes(1));
}

TEST(VolumeLaw, PaperMean) {
  // (10+...+90) + (100+...+900) + 1000 = 450 + 4500 + 1000 = 5950 GB over 19.
  EXPECT_NEAR(VolumeLaw::paper().mean().to_gigabytes(), 5950.0 / 19.0, 1e-9);
}

TEST(VolumeLaw, SamplesStayInSupport) {
  const VolumeLaw law = VolumeLaw::paper();
  std::set<double> support;
  for (Volume v : law.support()) support.insert(v.to_bytes());
  Rng rng{1};
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(support.count(law.sample(rng).to_bytes()), 1u);
  }
}

TEST(VolumeLaw, ConstantLaw) {
  const VolumeLaw law = VolumeLaw::constant(Volume::gigabytes(5));
  Rng rng{2};
  EXPECT_EQ(law.sample(rng), Volume::gigabytes(5));
  EXPECT_EQ(law.mean(), Volume::gigabytes(5));
}

TEST(VolumeLaw, RejectsBadSupport) {
  EXPECT_THROW(VolumeLaw{std::vector<Volume>{}}, std::invalid_argument);
  EXPECT_THROW(VolumeLaw{std::vector<Volume>{Volume::zero()}}, std::invalid_argument);
}

TEST(SlackLaw, RigidAlwaysOne) {
  Rng rng{3};
  const SlackLaw law = SlackLaw::rigid();
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(law.sample(rng), 1.0);
}

TEST(SlackLaw, FlexibleStaysInRange) {
  Rng rng{4};
  const SlackLaw law = SlackLaw::flexible(1.5, 4.0);
  for (int i = 0; i < 500; ++i) {
    const double s = law.sample(rng);
    EXPECT_GE(s, 1.5);
    EXPECT_LT(s, 4.0);
  }
  EXPECT_DOUBLE_EQ(law.mean(), 2.75);
}

WorkloadSpec small_spec() {
  WorkloadSpec spec;
  spec.ingress_count = 4;
  spec.egress_count = 3;
  spec.mean_interarrival = Duration::seconds(2);
  spec.horizon = Duration::seconds(500);
  return spec;
}

TEST(Generator, DeterministicForSameSeed) {
  const WorkloadSpec spec = small_spec();
  Rng a{99}, b{99};
  const auto ra = generate(spec, a);
  const auto rb = generate(spec, b);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t k = 0; k < ra.size(); ++k) {
    EXPECT_EQ(ra[k].id, rb[k].id);
    EXPECT_EQ(ra[k].ingress, rb[k].ingress);
    EXPECT_EQ(ra[k].egress, rb[k].egress);
    EXPECT_EQ(ra[k].release, rb[k].release);
    EXPECT_EQ(ra[k].deadline, rb[k].deadline);
    EXPECT_EQ(ra[k].volume, rb[k].volume);
    EXPECT_EQ(ra[k].max_rate, rb[k].max_rate);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  const WorkloadSpec spec = small_spec();
  Rng a{1}, b{2};
  const auto ra = generate(spec, a);
  const auto rb = generate(spec, b);
  // With hundreds of requests the traces cannot coincide.
  bool any_diff = ra.size() != rb.size();
  for (std::size_t k = 0; !any_diff && k < ra.size(); ++k) {
    any_diff = ra[k].volume != rb[k].volume || ra[k].release != rb[k].release;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Generator, ArrivalsOrderedWithinHorizon) {
  const WorkloadSpec spec = small_spec();
  Rng rng{7};
  const auto rs = generate(spec, rng);
  ASSERT_GT(rs.size(), 50u);
  for (std::size_t k = 0; k < rs.size(); ++k) {
    EXPECT_GE(rs[k].release.to_seconds(), 0.0);
    EXPECT_LT(rs[k].release.to_seconds(), spec.horizon.to_seconds());
    if (k > 0) {
      EXPECT_GE(rs[k].release, rs[k - 1].release);
    }
    EXPECT_EQ(rs[k].id, spec.first_id + k);
  }
}

TEST(Generator, RequestsAreWellFormed) {
  WorkloadSpec spec = small_spec();
  spec.slack = SlackLaw::flexible(1.0, 4.0);
  Rng rng{8};
  for (const Request& r : generate(spec, rng)) {
    EXPECT_TRUE(r.is_well_formed()) << r.describe();
    EXPECT_LT(r.ingress.value, spec.ingress_count);
    EXPECT_LT(r.egress.value, spec.egress_count);
    EXPECT_GE(r.max_rate, spec.min_host_rate);
    EXPECT_LE(r.max_rate, spec.max_host_rate);
  }
}

TEST(Generator, RigidSlackMakesRigidRequests) {
  const WorkloadSpec spec = small_spec();  // slack = rigid by default
  Rng rng{9};
  for (const Request& r : generate(spec, rng)) {
    EXPECT_TRUE(r.is_rigid()) << r.describe();
  }
}

TEST(Generator, PoissonCountNearExpectation) {
  WorkloadSpec spec = small_spec();
  spec.mean_interarrival = Duration::seconds(1);
  spec.horizon = Duration::seconds(10000);
  Rng rng{10};
  const auto rs = generate(spec, rng);
  EXPECT_NEAR(static_cast<double>(rs.size()), 10000.0, 400.0);  // ~4 sigma
}

TEST(Generator, RejectsBadSpecs) {
  WorkloadSpec spec = small_spec();
  spec.ingress_count = 0;
  Rng rng{11};
  EXPECT_THROW((void)generate(spec, rng), std::invalid_argument);
  WorkloadSpec spec2 = small_spec();
  spec2.mean_interarrival = Duration::zero();
  EXPECT_THROW((void)generate(spec2, rng), std::invalid_argument);
  // Each of these would size the up-front reservation from an infinite, NaN
  // or negative expected count; the spec is rejected before that cast.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double horizon : {inf, -inf, nan, -1.0}) {
    WorkloadSpec spec3 = small_spec();
    spec3.horizon = Duration::seconds(horizon);
    EXPECT_THROW((void)generate(spec3, rng), std::invalid_argument) << horizon;
  }
  for (const double interarrival : {inf, nan}) {
    WorkloadSpec spec3 = small_spec();
    spec3.mean_interarrival = Duration::seconds(interarrival);
    EXPECT_THROW((void)generate(spec3, rng), std::invalid_argument) << interarrival;
  }
  WorkloadSpec empty = small_spec();
  empty.horizon = Duration::zero();
  EXPECT_TRUE(generate(empty, rng).empty());
}

TEST(Load, ExpectedOfferedLoadMatchesFormula) {
  const WorkloadSpec spec = small_spec();
  const Network net = Network::uniform(4, 3, Bandwidth::gigabytes_per_second(1));
  // lambda = 0.5/s, E[vol] = 5950/19 GB, C/2 = 3.5 GB/s.
  const double expected = 0.5 * (5950.0 / 19.0) / 3.5;
  EXPECT_NEAR(expected_offered_load(spec, net), expected, 1e-9);
}

TEST(Load, InterarrivalForLoadInvertsExpectedLoad) {
  WorkloadSpec spec = small_spec();
  const Network net = Network::uniform(4, 3, Bandwidth::gigabytes_per_second(1));
  for (double target : {0.25, 1.0, 4.0}) {
    spec.mean_interarrival = interarrival_for_load(spec, net, target);
    EXPECT_NEAR(expected_offered_load(spec, net), target, 1e-9);
  }
  EXPECT_THROW((void)interarrival_for_load(spec, net, 0.0), std::invalid_argument);
}

TEST(Load, DemandRatioCountsMinRates) {
  const Network net = Network::uniform(1, 1, Bandwidth::megabytes_per_second(100));
  std::vector<Request> rs;
  rs.push_back(RequestBuilder{1}
                   .from(IngressId{0})
                   .to(EgressId{0})
                   .rigid(TimePoint::at_seconds(0), Duration::seconds(10),
                          Bandwidth::megabytes_per_second(50))
                   .build());
  // 50 MB/s demand over (100+100)/2 = 100 MB/s capacity.
  EXPECT_NEAR(demand_ratio(rs, net), 0.5, 1e-12);
}

TEST(Load, OfferedLoadIsTimeNormalized) {
  const Network net = Network::uniform(1, 1, Bandwidth::megabytes_per_second(100));
  std::vector<Request> rs;
  // 1 GB over a 100 s span on a 100 MB/s network -> 10 MB/s / 100 MB/s = 0.1.
  rs.push_back(RequestBuilder{1}
                   .from(IngressId{0})
                   .to(EgressId{0})
                   .window(TimePoint::at_seconds(0), TimePoint::at_seconds(100))
                   .volume(Volume::gigabytes(1))
                   .max_rate(Bandwidth::megabytes_per_second(100))
                   .build());
  EXPECT_NEAR(offered_load(rs, net), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(offered_load(std::vector<Request>{}, net), 0.0);
}

TEST(Trace, RoundTripsExactly) {
  WorkloadSpec spec = small_spec();
  spec.slack = SlackLaw::flexible(1.0, 3.0);
  Rng rng{12};
  const auto original = generate(spec, rng);
  std::stringstream ss;
  write_trace(ss, original);
  const auto loaded = read_trace(ss);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t k = 0; k < loaded.size(); ++k) {
    EXPECT_EQ(loaded[k].id, original[k].id);
    EXPECT_EQ(loaded[k].ingress, original[k].ingress);
    EXPECT_EQ(loaded[k].egress, original[k].egress);
    // Raw bits: a replayed trace must drive the engines with the very
    // doubles the generator produced.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded[k].release.to_seconds()),
              std::bit_cast<std::uint64_t>(original[k].release.to_seconds()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded[k].deadline.to_seconds()),
              std::bit_cast<std::uint64_t>(original[k].deadline.to_seconds()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded[k].volume.to_bytes()),
              std::bit_cast<std::uint64_t>(original[k].volume.to_bytes()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded[k].max_rate.to_bytes_per_second()),
              std::bit_cast<std::uint64_t>(original[k].max_rate.to_bytes_per_second()));
  }
}

TEST(Trace, RejectsWrongHeader) {
  std::stringstream ss{"not,a,trace\n"};
  EXPECT_THROW((void)read_trace(ss), std::runtime_error);
}

TEST(Trace, RejectsWrongFieldCount) {
  std::stringstream ss;
  ss << "id,ingress,egress,release_s,deadline_s,volume_bytes,max_rate_bps\n";
  ss << "1,0,0,0.0\n";
  EXPECT_THROW((void)read_trace(ss), std::runtime_error);
}

TEST(Trace, RejectsIllFormedRequest) {
  std::stringstream ss;
  ss << "id,ingress,egress,release_s,deadline_s,volume_bytes,max_rate_bps\n";
  ss << "1,0,0,10.0,5.0,1000,1000\n";  // deadline before release
  EXPECT_THROW((void)read_trace(ss), std::runtime_error);
}

TEST(Trace, RejectsNonFiniteAndNegativeFieldsNamingLineAndColumn) {
  const std::string header =
      "id,ingress,egress,release_s,deadline_s,volume_bytes,max_rate_bps\n";
  const std::string good = "1,0,0,0.0,100.0,1000000.0,1000000.0\n";
  const std::pair<const char*, const char*> cases[] = {
      {"2,0,0,0.0,inf,1000000.0,1000000.0", "deadline_s"},
      {"2,0,0,-inf,100.0,1000000.0,1000000.0", "release_s"},
      {"2,0,0,0.0,100.0,nan,1000000.0", "volume_bytes"},
      {"2,-1,0,0.0,100.0,1000000.0,1000000.0", "ingress"},
      {"2,0,-1,0.0,100.0,1000000.0,1000000.0", "egress"},
      {"-2,0,0,0.0,100.0,1000000.0,1000000.0", "id"},
      {"2.5,0,0,0.0,100.0,1000000.0,1000000.0", "id"},
      {"2,0,0,0.0,100.0,1000000.0,1e400", "max_rate_bps"},
  };
  for (const auto& [row, column] : cases) {
    std::stringstream ss{header + good + row + "\n"};
    try {
      (void)read_trace(ss);
      ADD_FAILURE() << "accepted: " << row;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 3"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string{"'"} + column + "'"), std::string::npos) << what;
    }
  }
}

TEST(Trace, IdsRoundTripOverTheFull64BitRange) {
  std::vector<Request> original(1);
  original[0].id = 18446744073709551615ULL;
  original[0].ingress = IngressId{3};
  original[0].egress = EgressId{4};
  original[0].release = TimePoint::at_seconds(1);
  original[0].deadline = TimePoint::at_seconds(11);
  original[0].volume = Volume::bytes(1e6);
  original[0].max_rate = Bandwidth::bytes_per_second(1e6);
  std::stringstream ss;
  write_trace(ss, original);
  const auto loaded = read_trace(ss);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].id, original[0].id);
}

TEST(Scenario, PaperRigidMatchesSection43) {
  const Scenario s = paper_rigid(Duration::seconds(5), Duration::seconds(100));
  EXPECT_EQ(s.network.ingress_count(), 10u);
  EXPECT_EQ(s.network.egress_count(), 10u);
  EXPECT_EQ(s.network.ingress_capacity(IngressId{0}),
            Bandwidth::gigabytes_per_second(1));
  EXPECT_DOUBLE_EQ(s.spec.slack.max_slack, 1.0);
  EXPECT_EQ(s.spec.volumes.support().size(), 19u);
}

TEST(Scenario, FlexiblePresetsHaveSlack) {
  const Scenario heavy = paper_flexible_heavy(Duration::seconds(1));
  EXPECT_GT(heavy.spec.slack.max_slack, 1.0);
  const Scenario light = paper_flexible_light(Duration::seconds(10));
  EXPECT_EQ(light.spec.mean_interarrival, Duration::seconds(10));
}

}  // namespace
}  // namespace gridbw::workload
