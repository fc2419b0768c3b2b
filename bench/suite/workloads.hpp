// gridbw-bench workload catalogue.
//
// Every workload is a pure function of (name, seed, scale): the program
// under test receives only the generated request set. `scale` shrinks the
// input proportionally (the --quick smoke runs at 1/20).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "core/request.hpp"

namespace gridbw::bench_suite {

struct Workload {
  std::string name;
  /// Scheduler spec for heuristics::parse_scheduler; empty for the churn
  /// workload, which runs through the admission service instead.
  std::string scheduler_spec;
  Network network;
  std::vector<Request> requests;

  [[nodiscard]] bool is_churn() const { return scheduler_spec.empty(); }
};

/// Builds the named workload. Throws std::invalid_argument for an unknown
/// name or a scale outside (0, 1].
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed,
                                     double scale);

}  // namespace gridbw::bench_suite
