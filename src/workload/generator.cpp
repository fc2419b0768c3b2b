#include "workload/generator.hpp"

#include <stdexcept>

namespace gridbw::workload {

Request sample_request(const WorkloadSpec& spec, Rng& rng, RequestId id,
                       TimePoint arrival) {
  Request r;
  r.id = id;
  r.ingress = IngressId{static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(spec.ingress_count) - 1))};
  r.egress = EgressId{static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(spec.egress_count) - 1))};
  r.volume = spec.volumes.sample(rng);
  r.release = arrival;
  if (spec.independent_rigid_window.has_value()) {
    const auto& [lo, hi] = *spec.independent_rigid_window;
    if (!lo.is_positive() || hi < lo) {
      throw std::invalid_argument{"sample_request: bad independent window range"};
    }
    Duration window = rng.uniform_duration(lo, hi);
    // Stretch windows whose implied rate the host cannot sustain.
    window = gridbw::max(window, r.volume / spec.max_host_rate);
    r.max_rate = r.volume / window;  // rigid: MinRate == MaxRate
    r.deadline = arrival + window;
    return r;
  }
  r.max_rate = rng.uniform_bandwidth(spec.min_host_rate, spec.max_host_rate);
  const double slack = spec.slack.sample(rng);
  if (slack < 1.0) {
    throw std::invalid_argument{"sample_request: slack < 1 gives an infeasible window"};
  }
  r.deadline = arrival + (r.volume / r.max_rate) * slack;
  return r;
}

std::vector<Request> generate(const WorkloadSpec& spec, Rng& rng) {
  if (spec.ingress_count == 0 || spec.egress_count == 0) {
    throw std::invalid_argument{"generate: empty endpoint universe"};
  }
  if (!spec.mean_interarrival.is_positive() || !spec.mean_interarrival.is_finite()) {
    throw std::invalid_argument{
        "generate: mean inter-arrival must be positive and finite"};
  }
  // Checked before the expected count sizes the reservation: casting an
  // infinite, NaN or negative count to std::size_t is undefined behaviour.
  if (!(spec.horizon.to_seconds() >= 0.0) || !spec.horizon.is_finite()) {
    throw std::invalid_argument{"generate: horizon must be finite and >= 0"};
  }
  std::vector<Request> requests;
  requests.reserve(static_cast<std::size_t>(spec.expected_count() * 1.2) + 8);
  RequestId id = spec.first_id;
  TimePoint t = TimePoint::origin() + rng.exponential_duration(spec.mean_interarrival);
  const TimePoint end = TimePoint::origin() + spec.horizon;
  while (t < end) {
    requests.push_back(sample_request(spec, rng, id++, t));
    t += rng.exponential_duration(spec.mean_interarrival);
  }
  return requests;
}

}  // namespace gridbw::workload
