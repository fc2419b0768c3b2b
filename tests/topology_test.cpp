// Tests for the overlay topology substrate.

#include <gtest/gtest.h>

#include <limits>

#include "control/topology.hpp"

namespace gridbw::control {
namespace {

TEST(OverlayTopology, Grid5000PresetShape) {
  const auto topo = OverlayTopology::grid5000_like();
  EXPECT_EQ(topo.site_count(), 8u);
  EXPECT_EQ(topo.site(0).connections, 64u);
  EXPECT_EQ(topo.site(0).access_capacity, Bandwidth::gigabytes_per_second(1));
}

TEST(OverlayTopology, FullMeshLinkCount) {
  const auto topo = OverlayTopology::grid5000_like(8);
  EXPECT_EQ(topo.mesh_link_count(), 8u * 7u);
}

TEST(OverlayTopology, AttachmentCountIsOrderMN) {
  const auto topo = OverlayTopology::grid5000_like(5, 32);
  EXPECT_EQ(topo.attachment_count(), 5u * 32u);
}

TEST(OverlayTopology, ControlLatencyLocalVsRemote) {
  const auto topo = OverlayTopology::grid5000_like(4);
  const Duration local = topo.control_latency(1, 1);
  const Duration remote = topo.control_latency(1, 2);
  EXPECT_LT(local, remote);
  EXPECT_NEAR(remote.to_seconds(), local.to_seconds() + 0.010, 1e-9);
}

TEST(OverlayTopology, DataPlaneMirrorsSites) {
  const auto topo = OverlayTopology::grid5000_like(6);
  const Network net = topo.data_plane();
  EXPECT_EQ(net.ingress_count(), 6u);
  EXPECT_EQ(net.egress_count(), 6u);
  EXPECT_EQ(net.ingress_capacity(IngressId{3}), topo.site(3).access_capacity);
}

TEST(OverlayTopology, ValidatesSites) {
  EXPECT_THROW(OverlayTopology{std::vector<Site>{}}, std::invalid_argument);
  Site one;
  one.connections = 4;
  one.access_capacity = Bandwidth::gigabytes_per_second(1);
  EXPECT_THROW(OverlayTopology{std::vector<Site>{one}}, std::invalid_argument);

  Site bad = one;
  bad.access_capacity = Bandwidth::zero();
  EXPECT_THROW((OverlayTopology{std::vector<Site>{one, bad}}), std::invalid_argument);

  Site no_hosts = one;
  no_hosts.connections = 0;
  EXPECT_THROW((OverlayTopology{std::vector<Site>{one, no_hosts}}),
               std::invalid_argument);

  // A latency schedules the protocol's messages: a negative one would put an
  // event in the past, a NaN one an unordered instant in the event heap.
  for (const double seconds : {-0.01, std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()}) {
    Site local = one;
    local.local_latency = Duration::seconds(seconds);
    EXPECT_THROW((OverlayTopology{std::vector<Site>{one, local}}), std::invalid_argument)
        << "local_latency " << seconds;
    Site mesh = one;
    mesh.mesh_latency = Duration::seconds(seconds);
    EXPECT_THROW((OverlayTopology{std::vector<Site>{one, mesh}}), std::invalid_argument)
        << "mesh_latency " << seconds;
  }
  Site instant = one;
  instant.local_latency = Duration::zero();
  instant.mesh_latency = Duration::zero();
  EXPECT_NO_THROW((OverlayTopology{std::vector<Site>{one, instant}}));
}

TEST(OverlayTopology, OutOfRangeSiteThrows) {
  const auto topo = OverlayTopology::grid5000_like(3);
  EXPECT_THROW((void)topo.site(3), std::out_of_range);
  EXPECT_THROW((void)topo.control_latency(0, 9), std::out_of_range);
}

}  // namespace
}  // namespace gridbw::control
