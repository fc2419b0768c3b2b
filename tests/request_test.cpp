// Unit tests for the request model and builder.

#include "core/request.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "util/random.hpp"

namespace gridbw {
namespace {

Request sample() {
  return RequestBuilder{7}
      .from(IngressId{2})
      .to(EgressId{5})
      .window(TimePoint::at_seconds(10), TimePoint::at_seconds(110))
      .volume(Volume::gigabytes(50))
      .max_rate(Bandwidth::gigabytes_per_second(1))
      .build();
}

TEST(Request, MinRateIsVolumeOverWindow) {
  const Request r = sample();
  EXPECT_DOUBLE_EQ(r.min_rate().to_megabytes_per_second(), 500.0);
  EXPECT_EQ(r.window(), Duration::seconds(100));
}

TEST(Request, MinRateFromDelayedStart) {
  const Request r = sample();
  // Starting at t=60 leaves 50 s for 50 GB -> 1 GB/s.
  EXPECT_DOUBLE_EQ(r.min_rate_from(TimePoint::at_seconds(60)).to_gigabytes_per_second(),
                   1.0);
  // Starting at/after the deadline is impossible.
  EXPECT_FALSE(r.min_rate_from(TimePoint::at_seconds(110)).is_finite());
  EXPECT_FALSE(r.min_rate_from(TimePoint::at_seconds(200)).is_finite());
}

TEST(Request, TransferTime) {
  const Request r = sample();
  EXPECT_DOUBLE_EQ(r.transfer_time(Bandwidth::gigabytes_per_second(1)).to_seconds(),
                   50.0);
}

TEST(Request, RigidDetection) {
  Request r = sample();
  EXPECT_FALSE(r.is_rigid());  // MinRate 0.5 GB/s < MaxRate 1 GB/s
  r.max_rate = r.min_rate();
  EXPECT_TRUE(r.is_rigid());
}

TEST(Request, WellFormedness) {
  Request r = sample();
  EXPECT_TRUE(r.is_well_formed());

  Request empty_window = r;
  empty_window.deadline = empty_window.release;
  EXPECT_FALSE(empty_window.is_well_formed());

  Request zero_volume = r;
  zero_volume.volume = Volume::zero();
  EXPECT_FALSE(zero_volume.is_well_formed());

  Request too_slow = r;
  too_slow.max_rate = Bandwidth::megabytes_per_second(1);  // < MinRate
  EXPECT_FALSE(too_slow.is_well_formed());

  Request inf_rate = r;
  inf_rate.max_rate = Bandwidth::infinity();
  EXPECT_FALSE(inf_rate.is_well_formed());
}

TEST(Request, NonFiniteFieldsAreIllFormed) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Request r = sample();

  Request open_deadline = r;  // min_rate 0: once admitted at rate 0
  open_deadline.deadline = TimePoint::infinity();
  EXPECT_FALSE(open_deadline.is_well_formed());

  Request open_release = r;
  open_release.release = TimePoint::at_seconds(-inf);
  EXPECT_FALSE(open_release.is_well_formed());

  Request nan_deadline = r;
  nan_deadline.deadline = TimePoint::at_seconds(nan);
  EXPECT_FALSE(nan_deadline.is_well_formed());

  Request inf_volume = r;
  inf_volume.volume = Volume::bytes(inf);
  inf_volume.max_rate = Bandwidth::bytes_per_second(1e300);
  EXPECT_FALSE(inf_volume.is_well_formed());

  // Finite endpoints whose difference overflows.
  Request huge_window = r;
  huge_window.release = TimePoint::at_seconds(-1e308);
  huge_window.deadline = TimePoint::at_seconds(1e308);
  EXPECT_FALSE(huge_window.is_well_formed());
}

TEST(RequestBuilder, ThrowsOnIllFormed) {
  EXPECT_THROW((void)RequestBuilder{1}
                   .from(IngressId{0})
                   .to(EgressId{0})
                   .window(TimePoint::at_seconds(5), TimePoint::at_seconds(5))
                   .volume(Volume::gigabytes(1))
                   .max_rate(Bandwidth::gigabytes_per_second(1))
                   .build(),
               std::invalid_argument);
}

TEST(RequestBuilder, RigidConvenience) {
  const Request r = RequestBuilder{3}
                        .from(IngressId{1})
                        .to(EgressId{2})
                        .rigid(TimePoint::at_seconds(0), Duration::seconds(10),
                               Bandwidth::megabytes_per_second(100))
                        .build();
  EXPECT_TRUE(r.is_rigid());
  EXPECT_EQ(r.volume, Volume::gigabytes(1));
  EXPECT_EQ(r.deadline, TimePoint::at_seconds(10));
  EXPECT_EQ(r.min_rate(), Bandwidth::megabytes_per_second(100));
}

TEST(Request, DescribeMentionsEndpointsAndWindow) {
  const std::string s = sample().describe();
  EXPECT_NE(s.find("r7"), std::string::npos);
  EXPECT_NE(s.find("in2->out5"), std::string::npos);
  EXPECT_NE(s.find("50.0 GB"), std::string::npos);
}

TEST(SortFcfs, OrdersByReleaseThenRate) {
  std::vector<Request> rs;
  rs.push_back(RequestBuilder{1}
                   .from(IngressId{0})
                   .to(EgressId{0})
                   .rigid(TimePoint::at_seconds(5), Duration::seconds(10),
                          Bandwidth::megabytes_per_second(100))
                   .build());
  rs.push_back(RequestBuilder{2}
                   .from(IngressId{0})
                   .to(EgressId{0})
                   .rigid(TimePoint::at_seconds(1), Duration::seconds(10),
                          Bandwidth::megabytes_per_second(500))
                   .build());
  rs.push_back(RequestBuilder{3}
                   .from(IngressId{0})
                   .to(EgressId{0})
                   .rigid(TimePoint::at_seconds(1), Duration::seconds(10),
                          Bandwidth::megabytes_per_second(100))
                   .build());
  sort_fcfs(rs);
  // t=1 first; among them the smaller rate (id 3) precedes.
  EXPECT_EQ(rs[0].id, 3u);
  EXPECT_EQ(rs[1].id, 2u);
  EXPECT_EQ(rs[2].id, 1u);
}

TEST(SortFcfs, TieBreaksById) {
  std::vector<Request> rs;
  for (RequestId id : {9u, 4u, 6u}) {
    rs.push_back(RequestBuilder{id}
                     .from(IngressId{0})
                     .to(EgressId{0})
                     .rigid(TimePoint::at_seconds(1), Duration::seconds(10),
                            Bandwidth::megabytes_per_second(100))
                     .build());
  }
  sort_fcfs(rs);
  EXPECT_EQ(rs[0].id, 4u);
  EXPECT_EQ(rs[1].id, 6u);
  EXPECT_EQ(rs[2].id, 9u);
}

TEST(SortFcfs, CollidingArrivalsAreDeterministicAcrossInputPermutations) {
  // Regression: a whole batch arriving at the same instant with identical
  // MinRates must sort into the same (id-ascending) order no matter how the
  // input was permuted — trace replays and batch arrivals depend on it.
  auto make = [](RequestId id) {
    return RequestBuilder{id}
        .from(IngressId{0})
        .to(EgressId{0})
        .rigid(TimePoint::at_seconds(42), Duration::seconds(10),
               Bandwidth::megabytes_per_second(100))
        .build();
  };
  std::vector<Request> forward, backward, shuffled;
  for (RequestId id = 1; id <= 32; ++id) forward.push_back(make(id));
  for (RequestId id = 32; id >= 1; --id) backward.push_back(make(id));
  Rng rng{7};
  shuffled = forward;
  rng.shuffle(shuffled);

  sort_fcfs(forward);
  sort_fcfs(backward);
  sort_fcfs(shuffled);
  for (std::size_t k = 0; k < forward.size(); ++k) {
    EXPECT_EQ(forward[k].id, k + 1);
    EXPECT_EQ(backward[k].id, forward[k].id);
    EXPECT_EQ(shuffled[k].id, forward[k].id);
  }
}

TEST(SortFcfs, CollidingArrivalsStillOrderByMinRateFirst) {
  // Same release, different MinRates: the §4.1 small-demands-first order
  // must win over the id tie-break.
  std::vector<Request> rs;
  rs.push_back(RequestBuilder{1}
                   .from(IngressId{0})
                   .to(EgressId{0})
                   .rigid(TimePoint::at_seconds(5), Duration::seconds(10),
                          Bandwidth::megabytes_per_second(300))
                   .build());
  rs.push_back(RequestBuilder{2}
                   .from(IngressId{0})
                   .to(EgressId{0})
                   .rigid(TimePoint::at_seconds(5), Duration::seconds(10),
                          Bandwidth::megabytes_per_second(100))
                   .build());
  sort_fcfs(rs);
  EXPECT_EQ(rs[0].id, 2u);
  EXPECT_EQ(rs[1].id, 1u);
}

TEST(TotalDemand, SumsMinRates) {
  std::vector<Request> rs;
  rs.push_back(RequestBuilder{1}
                   .from(IngressId{0})
                   .to(EgressId{0})
                   .rigid(TimePoint::at_seconds(0), Duration::seconds(10),
                          Bandwidth::megabytes_per_second(100))
                   .build());
  rs.push_back(RequestBuilder{2}
                   .from(IngressId{0})
                   .to(EgressId{0})
                   .rigid(TimePoint::at_seconds(0), Duration::seconds(10),
                          Bandwidth::megabytes_per_second(300))
                   .build());
  EXPECT_EQ(total_demand(rs), Bandwidth::megabytes_per_second(400));
  EXPECT_EQ(total_demand(std::vector<Request>{}), Bandwidth::zero());
}

}  // namespace
}  // namespace gridbw
