// Tests for the message-level reservation control plane.

#include <gtest/gtest.h>

#include <vector>

#include "control/control_plane.hpp"
#include "control/messages.hpp"
#include "core/validate.hpp"
#include "workload/generator.hpp"

namespace gridbw::control {
namespace {

TimePoint at(double s) { return TimePoint::at_seconds(s); }
Bandwidth mbps(double m) { return Bandwidth::megabytes_per_second(m); }

Request transfer(RequestId id, double ts, double gb, double max_mbps, double slack,
                 std::size_t in, std::size_t out) {
  const Volume vol = Volume::gigabytes(gb);
  const Duration fastest = vol / mbps(max_mbps);
  return RequestBuilder{id}
      .from(IngressId{in})
      .to(EgressId{out})
      .window(at(ts), at(ts) + fastest * slack)
      .volume(vol)
      .max_rate(mbps(max_mbps))
      .build();
}

TEST(ControlPlane, GrantsSingleRequest) {
  const auto topo = OverlayTopology::grid5000_like(4);
  const std::vector<Request> rs{transfer(1, 0, 1, 100, 4.0, 0, 2)};
  ControlPlaneOptions opt;
  opt.policy = heuristics::BandwidthPolicy::fraction_of_max(1.0);
  const auto report = run_control_plane(topo, rs, opt);
  EXPECT_EQ(report.result.accepted_count(), 1u);
  EXPECT_EQ(report.egress_conflicts, 0u);
  // Accept + completion each broadcast to the 3 other routers.
  EXPECT_EQ(report.control_messages, 6u);
}

TEST(ControlPlane, ResponseTimeIsTwoLocalHops) {
  const auto topo = OverlayTopology::grid5000_like(4);
  const std::vector<Request> rs{transfer(1, 0, 1, 100, 4.0, 0, 2)};
  const auto report = run_control_plane(topo, rs);
  ASSERT_EQ(report.response_time_s.count(), 1u);
  EXPECT_NEAR(report.response_time_s.mean(),
              2.0 * topo.site(0).local_latency.to_seconds(), 1e-12);
}

TEST(ControlPlane, ResultValidatesAgainstDataPlane) {
  const auto topo = OverlayTopology::grid5000_like(6);
  workload::WorkloadSpec spec;
  spec.ingress_count = 6;
  spec.egress_count = 6;
  spec.mean_interarrival = Duration::seconds(1);
  spec.horizon = Duration::seconds(300);
  spec.slack = workload::SlackLaw::flexible(1.5, 4.0);
  Rng rng{81};
  const auto requests = workload::generate(spec, rng);
  ControlPlaneOptions opt;
  opt.policy = heuristics::BandwidthPolicy::fraction_of_max(0.8);
  const auto report = run_control_plane(topo, requests, opt);
  const auto validation =
      validate_schedule(topo.data_plane(), requests, report.result.schedule);
  EXPECT_TRUE(validation.ok()) << validation.to_string();
  EXPECT_EQ(report.result.accepted_count() + report.result.rejected.size(),
            requests.size());
}

TEST(ControlPlane, ConcurrentRacesAreCountedAsConflicts) {
  // Two requests from different sites target egress 2 within one mesh
  // latency (10 ms): the second decision still sees a stale (empty) view.
  const auto topo = OverlayTopology::grid5000_like(4);
  const std::vector<Request> rs{transfer(1, 0.000, 1, 900, 4.0, 0, 2),
                                transfer(2, 0.001, 1, 900, 4.0, 1, 2)};
  ControlPlaneOptions opt;
  opt.policy = heuristics::BandwidthPolicy::fraction_of_max(1.0);
  const auto report = run_control_plane(topo, rs, opt);
  EXPECT_EQ(report.result.accepted_count(), 1u);
  EXPECT_EQ(report.egress_conflicts, 1u);
}

TEST(ControlPlane, ViewsConvergeAfterMeshLatency) {
  // Same race but the second request arrives after the broadcast landed:
  // it is rejected locally, with no enforcement conflict.
  const auto topo = OverlayTopology::grid5000_like(4);
  const std::vector<Request> rs{transfer(1, 0.000, 1, 900, 4.0, 0, 2),
                                transfer(2, 0.100, 1, 900, 4.0, 1, 2)};
  ControlPlaneOptions opt;
  opt.policy = heuristics::BandwidthPolicy::fraction_of_max(1.0);
  const auto report = run_control_plane(topo, rs, opt);
  EXPECT_EQ(report.result.accepted_count(), 1u);
  EXPECT_EQ(report.egress_conflicts, 0u);
}

TEST(ControlPlane, WireLogIsReplayableAndConsistent) {
  const auto topo = OverlayTopology::grid5000_like(4);
  const std::vector<Request> rs{transfer(1, 0, 1, 100, 4.0, 0, 2),
                                transfer(2, 1, 1, 900, 4.0, 1, 2),
                                transfer(3, 2, 1, 900, 4.0, 2, 2)};
  ControlPlaneOptions opt;
  opt.policy = heuristics::BandwidthPolicy::fraction_of_max(1.0);
  opt.record_wire_log = true;
  const auto report = run_control_plane(topo, rs, opt);

  ASSERT_FALSE(report.wire_log.empty());
  std::size_t resv = 0, grant = 0, reject = 0, tear = 0;
  for (const std::string& line : report.wire_log) {
    const auto parsed = parse_message(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    if (std::holds_alternative<ResvMessage>(*parsed)) ++resv;
    if (std::holds_alternative<GrantMessage>(*parsed)) ++grant;
    if (std::holds_alternative<RejectMessage>(*parsed)) ++reject;
    if (std::holds_alternative<TearMessage>(*parsed)) ++tear;
  }
  EXPECT_EQ(resv, rs.size());
  EXPECT_EQ(grant, report.result.accepted_count());
  EXPECT_EQ(reject, report.result.rejected.size());
  EXPECT_EQ(tear, report.result.accepted_count());  // every grant tears down
}

TEST(ControlPlane, EqualInstantsKeepFcfsOrder) {
  // Both requests reach router 0 at the same instant. FCFS puts the lower
  // MinRate first (7 before 3, against id and input order), and the event
  // heap must run the two decisions in that order.
  const auto topo = OverlayTopology::grid5000_like(4);
  const std::vector<Request> rs{transfer(3, 0, 1, 100, 2.0, 0, 3),
                                transfer(7, 0, 1, 100, 8.0, 0, 2)};
  ControlPlaneOptions opt;
  opt.record_wire_log = true;
  const auto report = run_control_plane(topo, rs, opt);

  std::vector<RequestId> decided;
  for (const std::string& line : report.wire_log) {
    const auto parsed = parse_message(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    if (const auto* resv = std::get_if<ResvMessage>(&*parsed)) {
      decided.push_back(resv->request.id);
    }
  }
  EXPECT_EQ(decided, (std::vector<RequestId>{7, 3}));
  ASSERT_GE(report.wire_log.size(), 4u);
  EXPECT_EQ(report.wire_log[0].rfind("RESV|id=7|", 0), 0u) << report.wire_log[0];
  EXPECT_EQ(report.wire_log[1].rfind("GRANT|id=7|", 0), 0u) << report.wire_log[1];
  EXPECT_EQ(report.wire_log[2].rfind("RESV|id=3|", 0), 0u) << report.wire_log[2];
}

TEST(ControlPlane, WireLogOffByDefault) {
  const auto topo = OverlayTopology::grid5000_like(4);
  const std::vector<Request> rs{transfer(1, 0, 1, 100, 4.0, 0, 2)};
  const auto report = run_control_plane(topo, rs);
  EXPECT_TRUE(report.wire_log.empty());
}

TEST(ControlPlane, RejectsRequestsOutsideTopology) {
  const auto topo = OverlayTopology::grid5000_like(3);
  const std::vector<Request> rs{transfer(1, 0, 1, 100, 4.0, 0, 5)};
  EXPECT_THROW((void)run_control_plane(topo, rs), std::invalid_argument);
}

}  // namespace
}  // namespace gridbw::control
