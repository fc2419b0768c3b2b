// ENGINE_SPEEDUP — wall-clock comparison of the fast admission engines
// against their paper-literal references on a large (default 10k-request)
// workload:
//
//   *-SLOTS:  SlotsEngine::kRebuild  vs  kIncremental  (all three SlotCosts)
//
// Both members of each pair are checked to produce the identical schedule
// before timing is reported. Results (including slices/sec telemetry) are
// written to BENCH_engine_speedup.json by default; pass --json=PATH to
// redirect or --quick for a smoke run that skips the JSON artifact.
//
// `--scale=N` appends a CUMULATED-SLOTS incremental-only scaling row at N
// requests (the rebuild oracle is quadratic and unaffordable there). Full
// runs default to N = 1,000,000; --quick defaults to off. CI's sanitizer
// smoke passes `--quick --scale=100000`.

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "heuristics/rigid_slots.hpp"
#include "workload/generator.hpp"
#include "workload/load.hpp"
#include "workload/scenario.hpp"

namespace gridbw {
namespace {

std::vector<Request> rigid_workload(std::size_t count) {
  workload::Scenario scenario =
      workload::paper_rigid(Duration::seconds(1), Duration::seconds(1));
  scenario.spec.mean_interarrival =
      workload::interarrival_for_load(scenario.spec, scenario.network, 3.0);
  scenario.spec.horizon =
      scenario.spec.mean_interarrival * static_cast<double>(count);
  Rng rng{1234};
  auto requests = workload::generate(scenario.spec, rng);
  requests.resize(std::min(requests.size(), count));
  return requests;
}

const Network& paper_network() {
  static const Network net =
      Network::uniform(10, 10, Bandwidth::gigabytes_per_second(1));
  return net;
}

/// Times `fn` (which returns a ScheduleResult) `reps` times.
template <typename Fn>
RunningStats time_runs(std::size_t reps, const Fn& fn, ScheduleResult* last) {
  RunningStats wall;
  for (std::size_t k = 0; k < reps; ++k) {
    const auto t0 = std::chrono::steady_clock::now();
    auto result = fn();
    const auto t1 = std::chrono::steady_clock::now();
    wall.add(std::chrono::duration<double>(t1 - t0).count());
    *last = std::move(result);
  }
  return wall;
}

bool same_schedule(const ScheduleResult& a, const ScheduleResult& b) {
  if (a.rejected.size() != b.rejected.size()) return false;
  if (a.schedule.assignments().size() != b.schedule.assignments().size()) return false;
  for (std::size_t k = 0; k < a.schedule.assignments().size(); ++k) {
    const Assignment& x = a.schedule.assignments()[k];
    const Assignment& y = b.schedule.assignments()[k];
    if (x.request != y.request || !(x.start == y.start) || !(x.bw == y.bw)) return false;
  }
  return true;
}

int run(int argc, const char* const* argv) {
  auto args = bench::BenchArgs::parse(argc, argv, {"scale"});
  const Flags flags{argc, argv};
  // This bench's artifact is the ISSUE's speedup proof; keep writing it by
  // default on full runs, but never let a --quick smoke run overwrite it.
  if (args.json_path.empty() && !args.quick) {
    args.json_path = "BENCH_engine_speedup.json";
  }
  const std::size_t count = args.quick ? 2000 : 10000;
  const std::size_t reps = args.quick ? 1 : 3;
  const std::size_t scale = static_cast<std::size_t>(
      flags.get_int("scale", args.quick ? 0 : 1000000));

  const auto rigid = rigid_workload(count);
  std::cout << "workload: " << rigid.size() << " rigid requests, " << reps
            << " timed runs each\n";

  Table table{{"kernel", "engine", "wall_s", "speedup", "slices", "skipped",
               "admission_checks", "slices_per_s"}};
  std::vector<std::string> names;
  std::vector<RunningStats> walls;

  for (const auto cost : {heuristics::SlotCost::kCumulated,
                          heuristics::SlotCost::kMinBandwidth,
                          heuristics::SlotCost::kMinVolume}) {
    const std::string kernel = to_string(cost);
    ScheduleResult ref, fast;
    heuristics::SlotsTelemetry ref_tm, fast_tm;
    const RunningStats ref_wall = time_runs(
        reps,
        [&] {
          ref_tm = {};
          return heuristics::schedule_rigid_slots(
              paper_network(), rigid, cost, heuristics::SlotsEngine::kRebuild, &ref_tm);
        },
        &ref);
    const RunningStats fast_wall = time_runs(
        reps,
        [&] {
          fast_tm = {};
          return heuristics::schedule_rigid_slots(paper_network(), rigid, cost,
                                                  heuristics::SlotsEngine::kIncremental,
                                                  &fast_tm);
        },
        &fast);
    if (!same_schedule(ref, fast)) {
      std::cerr << "FATAL: engines diverge for " << kernel << "\n";
      return 1;
    }
    const double speedup = fast_wall.mean() > 0.0 ? ref_wall.mean() / fast_wall.mean() : 0.0;
    for (const auto& [engine, wall, tm] :
         {std::tuple{std::string{"rebuild"}, ref_wall, ref_tm},
          std::tuple{std::string{"incremental"}, fast_wall, fast_tm}}) {
      table.add_row({kernel, engine, format_double(wall.mean(), 4),
                     engine == "incremental" ? format_double(speedup, 2) + "x" : "1.00x",
                     std::to_string(tm.slices), std::to_string(tm.skipped_slices),
                     std::to_string(tm.admission_checks),
                     format_double(wall.mean() > 0.0
                                       ? static_cast<double>(tm.slices) / wall.mean()
                                       : 0.0,
                                   0)});
      names.push_back(kernel + "/" + engine);
      walls.push_back(wall);
    }
  }

  // Scaling row: CUMULATED-SLOTS incremental alone at `scale` requests. The
  // rebuild oracle re-sorts and re-admits every active request per slice —
  // quadratic in practice — so only the incremental engine is timed here;
  // its schedule is differentially verified against rebuild at the 10k size
  // above (and in tests/incremental_engine_test.cpp).
  if (scale > 0) {
    const auto big = rigid_workload(scale);
    std::cout << "scaling workload: " << big.size() << " rigid requests\n";
    ScheduleResult result;
    heuristics::SlotsTelemetry tm;
    // Quick smokes run the scaling row once (its JSON then carries
    // stddev_s: null); full runs take >= 2 timed repetitions so the
    // reported spread is a real measurement.
    const std::size_t scale_reps =
        args.quick ? 1 : std::max<std::size_t>(2, reps);
    const RunningStats wall = time_runs(
        scale_reps,
        [&] {
          tm = {};
          return heuristics::schedule_rigid_slots(
              paper_network(), big, heuristics::SlotCost::kCumulated,
              heuristics::SlotsEngine::kIncremental, &tm);
        },
        &result);
    table.add_row({"cumulated-slots@" + std::to_string(big.size()), "incremental",
                   format_double(wall.mean(), 4), "-", std::to_string(tm.slices),
                   std::to_string(tm.skipped_slices),
                   std::to_string(tm.admission_checks),
                   format_double(wall.mean() > 0.0
                                     ? static_cast<double>(tm.slices) / wall.mean()
                                     : 0.0,
                                 0)});
    names.push_back("cumulated-slots-scale/incremental");
    walls.push_back(wall);
  }

  const std::string title = "Admission engine speedup — fast vs reference, " +
                            std::to_string(count) + " requests";
  bench::emit(title, table, args);
  if (!args.json_path.empty()) {
    bench::write_bench_json(args.json_path, "engine_speedup", title, table, names,
                            walls);
    std::cout << "(json written to " << args.json_path << ")\n";
  }
  return 0;
}

}  // namespace
}  // namespace gridbw

int main(int argc, char** argv) { return gridbw::run(argc, argv); }
