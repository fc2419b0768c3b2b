// Unit tests for the independent schedule validator: every violation kind
// must be detectable, and feasible schedules must pass.

#include "core/validate.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace gridbw {
namespace {

TimePoint at(double s) { return TimePoint::at_seconds(s); }
Bandwidth mbps(double m) { return Bandwidth::megabytes_per_second(m); }

class ValidateTest : public ::testing::Test {
 protected:
  Network net_ = Network::uniform(2, 2, mbps(100));

  Request make(RequestId id, double ts, double tf, double gb, double max_mbps,
               std::size_t in = 0, std::size_t out = 0) {
    return RequestBuilder{id}
        .from(IngressId{in})
        .to(EgressId{out})
        .window(at(ts), at(tf))
        .volume(Volume::gigabytes(gb))
        .max_rate(mbps(max_mbps))
        .build();
  }

  bool has_violation(const ValidationReport& report, ViolationKind kind) {
    for (const auto& v : report.violations) {
      if (v.kind == kind) return true;
    }
    return false;
  }
};

TEST_F(ValidateTest, EmptyScheduleIsValid) {
  const std::vector<Request> rs{make(1, 0, 100, 1, 100)};
  const Schedule s;
  EXPECT_TRUE(validate_schedule(net_, rs, s).ok());
}

TEST_F(ValidateTest, FeasibleScheduleIsValid) {
  const std::vector<Request> rs{make(1, 0, 100, 1, 100), make(2, 0, 100, 1, 100, 1, 1)};
  Schedule s;
  s.accept(1, at(0), mbps(10));   // finishes exactly at the deadline
  s.accept(2, at(50), mbps(50));  // delayed start, faster rate
  const auto report = validate_schedule(net_, rs, s);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_F(ValidateTest, UnknownRequestFlagged) {
  const std::vector<Request> rs{make(1, 0, 100, 1, 100)};
  Schedule s;
  s.accept(99, at(0), mbps(10));
  const auto report = validate_schedule(net_, rs, s);
  EXPECT_TRUE(has_violation(report, ViolationKind::kUnknownRequest));
}

TEST_F(ValidateTest, StartBeforeReleaseFlagged) {
  const std::vector<Request> rs{make(1, 10, 100, 1, 100)};
  Schedule s;
  s.accept(1, at(5), mbps(50));
  EXPECT_TRUE(has_violation(validate_schedule(net_, rs, s),
                            ViolationKind::kStartBeforeRelease));
}

TEST_F(ValidateTest, EndAfterDeadlineFlagged) {
  const std::vector<Request> rs{make(1, 0, 100, 1, 100)};
  Schedule s;
  s.accept(1, at(0), mbps(5));  // 1 GB at 5 MB/s = 200 s > 100 s window
  EXPECT_TRUE(
      has_violation(validate_schedule(net_, rs, s), ViolationKind::kEndAfterDeadline));
}

TEST_F(ValidateTest, RateAboveMaxFlagged) {
  const std::vector<Request> rs{make(1, 0, 100, 1, 50)};
  Schedule s;
  s.accept(1, at(0), mbps(80));
  EXPECT_TRUE(
      has_violation(validate_schedule(net_, rs, s), ViolationKind::kRateAboveMax));
}

TEST_F(ValidateTest, NonPositiveRateFlagged) {
  const std::vector<Request> rs{make(1, 0, 100, 1, 100)};
  Schedule s;
  s.accept(1, at(0), Bandwidth::zero());
  EXPECT_TRUE(
      has_violation(validate_schedule(net_, rs, s), ViolationKind::kRateNotPositive));
}

TEST_F(ValidateTest, IngressOverCapacityFlagged) {
  // Two 60 MB/s flows on the same 100 MB/s ingress, different egress.
  const std::vector<Request> rs{make(1, 0, 100, 6, 100, 0, 0),
                                make(2, 0, 100, 6, 100, 0, 1)};
  Schedule s;
  s.accept(1, at(0), mbps(60));
  s.accept(2, at(0), mbps(60));
  const auto report = validate_schedule(net_, rs, s);
  EXPECT_TRUE(has_violation(report, ViolationKind::kIngressOverCapacity));
  EXPECT_FALSE(has_violation(report, ViolationKind::kEgressOverCapacity));
}

TEST_F(ValidateTest, EgressOverCapacityFlagged) {
  const std::vector<Request> rs{make(1, 0, 100, 6, 100, 0, 0),
                                make(2, 0, 100, 6, 100, 1, 0)};
  Schedule s;
  s.accept(1, at(0), mbps(60));
  s.accept(2, at(0), mbps(60));
  const auto report = validate_schedule(net_, rs, s);
  EXPECT_TRUE(has_violation(report, ViolationKind::kEgressOverCapacity));
}

TEST_F(ValidateTest, SequentialFullCapacityIsValid) {
  // Back-to-back 100 MB/s reservations on the same port never coexist.
  const std::vector<Request> rs{make(1, 0, 10, 1, 100), make(2, 10, 20, 1, 100)};
  Schedule s;
  s.accept(1, at(0), mbps(100));
  s.accept(2, at(10), mbps(100));
  const auto report = validate_schedule(net_, rs, s);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_F(ValidateTest, GuaranteeFloorChecked) {
  const std::vector<Request> rs{make(1, 0, 1000, 1, 100)};
  Schedule s;
  s.accept(1, at(0), mbps(10));  // well above MinRate (1 MB/s) but below 0.8*Max
  EXPECT_TRUE(validate_schedule(net_, rs, s, 0.0).ok());
  const auto report = validate_schedule(net_, rs, s, 0.8);
  EXPECT_TRUE(has_violation(report, ViolationKind::kBelowGuaranteedFloor));
  EXPECT_FALSE(has_violation(report, ViolationKind::kRateNotPositive));
  EXPECT_NE(report.to_string().find("below-guaranteed-floor"), std::string::npos);
}

TEST_F(ValidateTest, GuaranteeFloorSatisfied) {
  const std::vector<Request> rs{make(1, 0, 1000, 1, 100)};
  Schedule s;
  s.accept(1, at(0), mbps(80));
  EXPECT_TRUE(validate_schedule(net_, rs, s, 0.8).ok());
}

TEST_F(ValidateTest, DuplicateAssignmentFlagged) {
  // Schedule's accept() forbids duplicates, so feed a raw assignment list:
  // the validator must not trust the container's invariant. Without the
  // check, both copies double-count port load while no per-request
  // violation names the culprit.
  const std::vector<Request> rs{make(1, 0, 100, 1, 100)};
  const std::vector<Assignment> as{
      Assignment{1, at(0), mbps(20)},
      Assignment{1, at(10), mbps(20)},
      Assignment{1, at(20), mbps(20)},
  };
  const auto report = validate_assignments(net_, rs, as);
  std::size_t duplicates = 0;
  for (const auto& v : report.violations) {
    if (v.kind == ViolationKind::kDuplicateAssignment) {
      ++duplicates;
      EXPECT_EQ(v.request, 1u);
    }
  }
  EXPECT_EQ(duplicates, 2u);  // first copy is legitimate, the other two flagged
  EXPECT_NE(report.to_string().find("duplicate-assignment"), std::string::npos);
}

TEST_F(ValidateTest, DuplicateLoadIsNotDoubleCounted) {
  // Two copies of a 60 MB/s assignment on a 100 MB/s port: the duplicate is
  // flagged but its load is ignored, so no phantom capacity violation.
  const std::vector<Request> rs{make(1, 0, 100, 6, 100)};
  const std::vector<Assignment> as{Assignment{1, at(0), mbps(60)},
                                   Assignment{1, at(0), mbps(60)}};
  const auto report = validate_assignments(net_, rs, as);
  EXPECT_TRUE(has_violation(report, ViolationKind::kDuplicateAssignment));
  EXPECT_FALSE(has_violation(report, ViolationKind::kIngressOverCapacity));
}

TEST_F(ValidateTest, EngineOptionsAgreeOnSmallSchedules) {
  // The ValidateOptions overload and the back-compatible double overload
  // run the same single engine and must report the same violations.
  const std::vector<Request> rs{make(1, 0, 100, 6, 100, 0, 0),
                                make(2, 0, 100, 6, 100, 0, 1)};
  Schedule s;
  s.accept(1, at(0), mbps(60));
  s.accept(2, at(0), mbps(60));
  const auto plain = validate_schedule(net_, rs, s);
  const auto with_options = validate_schedule(net_, rs, s, ValidateOptions{});
  for (const auto* report : {&plain, &with_options}) {
    EXPECT_TRUE(has_violation(*report, ViolationKind::kIngressOverCapacity));
    EXPECT_FALSE(has_violation(*report, ViolationKind::kEgressOverCapacity));
  }
  EXPECT_EQ(plain.to_string(), with_options.to_string());
}

TEST_F(ValidateTest, UnknownPortFlaggedAndNotCharged) {
  // A 60 MB/s request on ingress 2 of a 2x2 network: charged blindly, its
  // load would land on egress 0's profile next to its own egress charge and
  // report a phantom 120 MB/s egress peak that names no bad port.
  const std::vector<Request> bad_ingress{make(1, 0, 100, 6, 100, 2, 0)};
  Schedule s;
  s.accept(1, at(0), mbps(60));
  const auto report = validate_schedule(net_, bad_ingress, s);
  ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
  EXPECT_EQ(report.violations[0].kind, ViolationKind::kUnknownPort);
  EXPECT_EQ(report.violations[0].request, 1u);
  EXPECT_EQ(report.violations[0].port, 2u);
  EXPECT_NE(report.to_string().find("unknown-port"), std::string::npos);

  // Egress past the end: charging it would write out of bounds.
  const std::vector<Request> bad_egress{make(1, 0, 100, 6, 100, 0, 5)};
  const auto egress_report = validate_schedule(net_, bad_egress, s);
  ASSERT_EQ(egress_report.violations.size(), 1u) << egress_report.to_string();
  EXPECT_EQ(egress_report.violations[0].kind, ViolationKind::kUnknownPort);
  EXPECT_EQ(egress_report.violations[0].port, 5u);
}

TEST_F(ValidateTest, ReportRendering) {
  const std::vector<Request> rs{make(1, 10, 100, 1, 100)};
  Schedule s;
  s.accept(1, at(5), mbps(50));
  const auto report = validate_schedule(net_, rs, s);
  EXPECT_NE(report.to_string().find("start-before-release"), std::string::npos);
  Schedule ok;
  EXPECT_EQ(validate_schedule(net_, rs, ok).to_string(), "valid");
}

}  // namespace
}  // namespace gridbw
