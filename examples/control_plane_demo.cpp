// control_plane_demo — the deployment path of §5.4 end to end:
//
//   1. reservation requests travel the overlay to their ingress router,
//      which decides locally against (slightly stale) broadcast state;
//   2. granted transfers are policed at the access point by token buckets
//      sized from their reservations — a misbehaving sender is clipped,
//      conforming ones are untouched.
//
// Run:  ./control_plane_demo [--seed=N] [--misbehave-factor=F]

#include <iostream>

#include "gridbw.hpp"

int main(int argc, char** argv) {
  using namespace gridbw;
  const Flags flags{argc, argv};
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 11));
  const double misbehave = flags.get_double("misbehave-factor", 4.0);

  const auto topology = control::OverlayTopology::grid5000_like(8);
  std::cout << "overlay: " << topology.site_count() << " sites, "
            << topology.mesh_link_count() << " mesh links, "
            << topology.attachment_count() << " host attachments\n";

  // A burst of requests (one every 200 ms for a minute).
  workload::WorkloadSpec spec;
  spec.ingress_count = topology.site_count();
  spec.egress_count = topology.site_count();
  spec.mean_interarrival = Duration::seconds(0.2);
  spec.horizon = Duration::seconds(60);
  spec.slack = workload::SlackLaw::flexible(1.5, 4.0);
  Rng rng{seed};
  const auto requests = workload::generate(spec, rng);

  control::ControlPlaneOptions options;
  options.policy = heuristics::BandwidthPolicy::fraction_of_max(1.0);
  const auto report = control::run_control_plane(topology, requests, options);

  std::cout << "reservations: " << report.result.accepted_count() << " granted / "
            << requests.size() << " requested (accept rate "
            << format_double(report.result.accept_rate(), 3) << ")\n";
  std::cout << "egress conflicts from stale views: " << report.egress_conflicts << "\n";
  std::cout << "mean client response time: "
            << format_double(report.response_time_s.mean() * 1000.0, 3) << " ms over "
            << report.control_messages << " broadcast messages\n";

  const auto validation = validate_schedule(topology.data_plane(), requests,
                                            report.result.schedule);
  std::cout << "data-plane feasibility: "
            << (validation.ok() ? "valid" : validation.to_string()) << "\n\n";

  // Policing: take the first few granted reservations; make one sender
  // misbehave at `misbehave` times its reservation.
  std::vector<control::PolicedFlow> flows;
  for (const Assignment& a : report.result.schedule.assignments()) {
    const double factor = flows.empty() ? misbehave : 1.0;  // first flow cheats
    flows.push_back(control::PolicedFlow{a.request, a.bw, a.bw * factor});
    if (flows.size() == 6) break;
  }
  if (flows.empty()) {
    std::cout << "no granted flows to police\n";
    return 0;
  }
  const auto policing = control::police_flows(flows, Duration::seconds(5));
  Table table{{"flow", "offered", "delivered", "dropped", "delivery ratio"}};
  for (const auto& f : policing.flows) {
    // Built by append: GCC 12 reports a false -Wrestrict on "r" + to_string.
    table.add_row({std::string{"r"}.append(std::to_string(f.id)), to_string(f.offered),
                   to_string(f.delivered), to_string(f.dropped),
                   format_double(f.delivery_ratio(), 3)});
  }
  std::cout << "token-bucket policing (flow r" << policing.flows.front().id
            << " misbehaves at " << misbehave << "x its reservation):\n";
  table.print(std::cout);
  return validation.ok() ? 0 : 1;
}
