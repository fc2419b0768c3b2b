#include "control/topology.hpp"

#include <stdexcept>

namespace gridbw::control {

OverlayTopology::OverlayTopology(std::vector<Site> sites) : sites_{std::move(sites)} {
  if (sites_.size() < 2) {
    throw std::invalid_argument{"OverlayTopology: need at least two sites"};
  }
  for (const Site& s : sites_) {
    if (!s.access_capacity.is_positive()) {
      throw std::invalid_argument{"OverlayTopology: non-positive access capacity"};
    }
    if (s.connections == 0) {
      throw std::invalid_argument{"OverlayTopology: site without connections"};
    }
    for (const Duration latency : {s.local_latency, s.mesh_latency}) {
      if (latency.is_negative() || !latency.is_finite()) {
        throw std::invalid_argument{"OverlayTopology: negative or non-finite latency"};
      }
    }
  }
}

OverlayTopology OverlayTopology::grid5000_like(std::size_t site_count,
                                               std::size_t connections) {
  std::vector<Site> sites;
  sites.reserve(site_count);
  for (std::size_t m = 0; m < site_count; ++m) {
    Site s;
    s.name = "site-" + std::to_string(m);
    s.connections = connections;
    s.access_capacity = Bandwidth::gigabytes_per_second(1);
    s.local_latency = Duration::seconds(0.0005);
    s.mesh_latency = Duration::seconds(0.010);
    sites.push_back(std::move(s));
  }
  return OverlayTopology{std::move(sites)};
}

std::size_t OverlayTopology::mesh_link_count() const {
  return sites_.size() * (sites_.size() - 1);
}

std::size_t OverlayTopology::attachment_count() const {
  std::size_t total = 0;
  for (const Site& s : sites_) total += s.connections;
  return total;
}

Duration OverlayTopology::control_latency(std::size_t from, std::size_t to) const {
  const Site& origin = sites_.at(from);
  (void)sites_.at(to);  // bounds check
  if (from == to) return origin.local_latency;
  return origin.local_latency + origin.mesh_latency;
}

Network OverlayTopology::data_plane() const {
  std::vector<Bandwidth> ingress, egress;
  ingress.reserve(sites_.size());
  egress.reserve(sites_.size());
  for (const Site& s : sites_) {
    ingress.push_back(s.access_capacity);
    egress.push_back(s.access_capacity);
  }
  return Network{std::move(ingress), std::move(egress)};
}

}  // namespace gridbw::control
