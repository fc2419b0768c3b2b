// PROFILE_SPEEDUP — wall-clock timings of the port-load profile structures
// and the schedule validator on large schedules:
//
//   queries:     StepFunction (std::map deltas, O(n) scans)  vs
//                TimelineProfile (flat breakpoints + prefix caches,
//                O(log n) binary-searched queries)
//   validation:  validate_assignments on an accept-all-at-MinRate schedule
//
// Both query structures are checked to produce identical results before
// timing is reported. Results land in BENCH_profile_speedup.json by default;
// pass --json=PATH to redirect or --quick for a smoke run that skips the
// JSON artifact.

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "support/step_function.hpp"
#include "core/timeline_profile.hpp"
#include "core/validate.hpp"
#include "util/random.hpp"
#include "workload/generator.hpp"
#include "workload/load.hpp"
#include "workload/scenario.hpp"

namespace gridbw {
namespace {

TimePoint at(double s) { return TimePoint::at_seconds(s); }

template <typename Fn>
double time_once(const Fn& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct Interval {
  double lo, hi, bw;
};

struct QueryProbe {
  double t0, t1;
};

/// One structure's timings over the same interval stack + query mix.
struct ProfileTiming {
  double build_s{0.0};
  double query_s{0.0};
  double checksum{0.0};  // fold of every query result, for cross-checking
};

template <typename Profile>
ProfileTiming run_profile(const std::vector<Interval>& intervals,
                          const std::vector<QueryProbe>& probes) {
  ProfileTiming out;
  Profile profile;
  out.build_s = time_once([&] {
    if constexpr (std::is_same_v<Profile, TimelineProfile>) {
      profile.reserve(intervals.size());
    }
    for (const Interval& iv : intervals) profile.add(at(iv.lo), at(iv.hi), iv.bw);
    // The flat profile defers sorting to the first query; fold that cost
    // into build so the query timing below is pure query work — the same
    // accounting the map gets (its sorting happens inside add).
    if constexpr (std::is_same_v<Profile, TimelineProfile>) {
      profile.ensure_merged();
    }
  });
  out.query_s = time_once([&] {
    double acc = 0.0;
    for (const QueryProbe& q : probes) {
      acc += profile.value_at(at(q.t0));
      acc += profile.max_over(at(q.t0), at(q.t1));
      acc += profile.integral(at(q.t0), at(q.t1));
    }
    acc += profile.global_max();
    out.checksum = acc;
  });
  return out;
}

const Network& paper_network() {
  static const Network net =
      Network::uniform(10, 10, Bandwidth::gigabytes_per_second(1));
  return net;
}

std::vector<Request> workload_of(std::size_t count) {
  workload::Scenario scenario =
      workload::paper_flexible(Duration::seconds(1), Duration::seconds(1), 4.0);
  scenario.spec.mean_interarrival =
      workload::interarrival_for_load(scenario.spec, scenario.network, 3.0);
  scenario.spec.horizon =
      scenario.spec.mean_interarrival * static_cast<double>(count);
  Rng rng{1234};
  auto requests = workload::generate(scenario.spec, rng);
  requests.resize(std::min(requests.size(), count));
  return requests;
}

int run(int argc, const char* const* argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  // This bench's artifact is the ISSUE's speedup proof; keep writing it by
  // default on full runs, but never let a --quick smoke run overwrite it.
  if (args.json_path.empty() && !args.quick) {
    args.json_path = "BENCH_profile_speedup.json";
  }
  const std::vector<std::size_t> sizes =
      args.quick ? std::vector<std::size_t>{2000}
                 : std::vector<std::size_t>{10000, 100000};
  const std::size_t query_count = args.quick ? 100 : 400;
  const std::size_t reps = args.quick ? 1 : 3;

  Table table{{"section", "requests", "variant", "build_s", "run_s", "speedup"}};
  std::vector<std::string> names;
  std::vector<RunningStats> walls;

  // -------------------------------------------------------------------
  // Part A: profile queries on a single port's load profile.
  // -------------------------------------------------------------------
  for (const std::size_t n : sizes) {
    Rng rng{args.config.base_seed};
    std::vector<Interval> intervals;
    intervals.reserve(n);
    const double horizon = static_cast<double>(n);  // ~1 new transfer per second
    for (std::size_t k = 0; k < n; ++k) {
      const double lo = rng.uniform(0.0, horizon);
      intervals.push_back(
          Interval{lo, lo + rng.uniform(10.0, 2000.0), rng.uniform(1e7, 1e9)});
    }
    std::vector<QueryProbe> probes;
    probes.reserve(query_count);
    for (std::size_t q = 0; q < query_count; ++q) {
      const double t0 = rng.uniform(-10.0, horizon);
      probes.push_back(QueryProbe{t0, t0 + rng.uniform(1.0, 500.0)});
    }

    RunningStats map_build, map_query, flat_build, flat_query;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const auto map_t = run_profile<StepFunction>(intervals, probes);
      const auto flat_t = run_profile<TimelineProfile>(intervals, probes);
      if (map_t.checksum != flat_t.checksum) {
        std::cerr << "FATAL: profile structures diverge at n=" << n << "\n";
        return 1;
      }
      map_build.add(map_t.build_s);
      map_query.add(map_t.query_s);
      flat_build.add(flat_t.build_s);
      flat_query.add(flat_t.query_s);
    }
    const double speedup =
        flat_query.mean() > 0.0 ? map_query.mean() / flat_query.mean() : 0.0;
    table.add_row({"queries", std::to_string(n), "map", format_double(map_build.mean(), 4),
                   format_double(map_query.mean(), 4), "1.00x"});
    table.add_row({"queries", std::to_string(n), "flat",
                   format_double(flat_build.mean(), 4), format_double(flat_query.mean(), 4),
                   format_double(speedup, 2) + "x"});
    names.push_back("queries/" + std::to_string(n) + "/map");
    names.push_back("queries/" + std::to_string(n) + "/flat");
    walls.push_back(map_query);
    walls.push_back(flat_query);
    std::cout << "profile queries, n=" << n << ": map " << format_double(map_query.mean(), 4)
              << "s vs flat " << format_double(flat_query.mean(), 4) << "s  ("
              << format_double(speedup, 1) << "x)\n";
  }

  // -------------------------------------------------------------------
  // Part B: whole-schedule validation.
  // -------------------------------------------------------------------
  for (const std::size_t n : sizes) {
    const auto requests = workload_of(n);
    std::vector<Assignment> assignments;
    assignments.reserve(requests.size());
    for (const Request& r : requests) {
      assignments.push_back(Assignment{r.id, r.release, r.min_rate()});
    }

    RunningStats wall;
    std::size_t violations = 0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      wall.add(time_once([&] {
        violations = validate_assignments(paper_network(), requests, assignments)
                         .violations.size();
      }));
    }
    table.add_row({"validate", std::to_string(requests.size()), "flat", "-",
                   format_double(wall.mean(), 4), "-"});
    names.push_back("validate/" + std::to_string(requests.size()) + "/flat");
    walls.push_back(wall);
    std::cout << "validation, n=" << requests.size() << ": "
              << format_double(wall.mean(), 4) << "s (" << violations
              << " violations)\n";
  }

  const std::string title =
      "Flat timeline profiles — map vs flat queries, whole-schedule validation";
  bench::emit(title, table, args);
  if (!args.json_path.empty()) {
    bench::write_bench_json(args.json_path, "profile_speedup", title, table, names,
                            walls);
    std::cout << "(json written to " << args.json_path << ")\n";
  }
  return 0;
}

}  // namespace
}  // namespace gridbw

int main(int argc, char** argv) { return gridbw::run(argc, argv); }
