// CHURN — steady-state throughput of the admission service
// (src/service/, DESIGN.md §5h, EXPERIMENTS.md CHRN).
//
// A sustained arrival+departure trace (default 1M requests, --quick 20k,
// --requests=N to override) on a 32x32 fabric is pushed through
// service::AdmissionService with the breakpoint GC on and off. Reported
// per configuration:
//
//   * admitted count and sustained admissions/sec (wall clock over the
//     whole drain),
//   * p50/p99 per-admission decision latency (injected steady-clock),
//   * resident breakpoints after the drain and peak live reservations,
//   * GC activity (compactions, breakpoints retired).
//
// The bench FATALs unless both configurations' decision fingerprints are
// identical (GC on vs off must agree bit for bit) and unless GC keeps
// resident breakpoints O(live): at most 4x the live peak plus a per-port
// batch allowance, independent of trace length. Results go to
// BENCH_churn.json (suppressed under --quick unless --json is given).

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "service/admission_service.hpp"
#include "util/random.hpp"

namespace gridbw {
namespace {

constexpr std::size_t kPorts = 32;

/// Poisson arrivals of rigid reservations over uniformly random port pairs.
/// Mean window 60 s at 0.3 s interarrival -> ~200 live reservations at any
/// instant (~6 per port at 2-15% of capacity each), so the ports run hot
/// enough that the peaks produce real rejections while most requests admit.
std::vector<Request> churn_trace(std::uint64_t seed, std::size_t count) {
  Rng rng{seed};
  std::vector<Request> out;
  out.reserve(count);
  double now = 0.0;
  for (std::size_t k = 0; k < count; ++k) {
    now += rng.exponential(0.3);
    const double window = rng.uniform(20.0, 100.0);
    Request r;
    r.id = static_cast<RequestId>(k + 1);
    r.ingress = IngressId{static_cast<std::size_t>(rng.uniform_int(0, kPorts - 1))};
    r.egress = EgressId{static_cast<std::size_t>(rng.uniform_int(0, kPorts - 1))};
    r.release = TimePoint::at_seconds(now);
    r.deadline = TimePoint::at_seconds(now + window);
    // 2-15% of port capacity, rigid: min_rate == max_rate.
    const double frac = rng.uniform(0.02, 0.15);
    r.volume = Volume::bytes(frac * 1e9 * window);
    r.max_rate = Bandwidth::bytes_per_second(frac * 1e9);
    out.push_back(r);
  }
  return out;
}

struct ConfigResult {
  std::string name;
  service::ServiceReport report;
  double wall_s{0.0};
  double p50_us{0.0};
  double p99_us{0.0};
};

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t idx = std::min(
      values.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(values.size() - 1) + 0.5));
  return values[idx];
}

ConfigResult run_config(const Network& net, const std::vector<Request>& trace,
                        std::string name, bool gc) {
  service::ServiceOptions options;
  options.gc = gc;
  options.clock = [] {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  service::AdmissionService svc{net, std::move(options)};
  for (const Request& r : trace) svc.submit(r);
  const auto t0 = std::chrono::steady_clock::now();
  ConfigResult result;
  result.report = svc.drain();
  const auto t1 = std::chrono::steady_clock::now();
  result.name = std::move(name);
  result.wall_s = std::chrono::duration<double>(t1 - t0).count();
  result.p50_us = percentile(result.report.latency, 0.50) * 1e6;
  result.p99_us = percentile(result.report.latency, 0.99) * 1e6;
  return result;
}

int run(int argc, const char* const* argv) {
  auto args = bench::BenchArgs::parse(argc, argv, {"requests"});
  const Flags flags{argc, argv};
  if (args.json_path.empty() && !args.quick) {
    args.json_path = "BENCH_churn.json";
  }
  const std::size_t requests = static_cast<std::size_t>(
      flags.get_int("requests", args.quick ? 20000 : 1000000));

  const Network net =
      Network::uniform(kPorts, kPorts, Bandwidth::gigabytes_per_second(1));
  const auto trace = churn_trace(args.config.base_seed, requests);
  std::cout << "churn trace: " << trace.size() << " requests, fabric " << kPorts
            << "x" << kPorts << "\n";

  std::vector<ConfigResult> results;
  results.push_back(run_config(net, trace, "gc", true));
  results.push_back(run_config(net, trace, "nogc", false));
  const ConfigResult& gc = results[0];
  const ConfigResult& nogc = results[1];

  // --- invariants the bench enforces -------------------------------------
  if (nogc.report.decision_fingerprint != gc.report.decision_fingerprint) {
    std::cerr << "FATAL: " << nogc.name << " decisions diverge from " << gc.name
              << "\n";
    return 1;
  }
  const std::size_t resident_cap = 4 * gc.report.live_peak + 128 * 2 * kPorts;
  if (gc.report.resident_breakpoints > resident_cap) {
    std::cerr << "FATAL: " << gc.name << " resident breakpoints "
              << gc.report.resident_breakpoints << " exceed O(live) cap "
              << resident_cap << "\n";
    return 1;
  }
  if (gc.report.breakpoints_retired == 0) {
    std::cerr << "FATAL: " << gc.name << " retired no breakpoints\n";
    return 1;
  }

  Table table{{"config", "requests", "admitted", "wall_s", "admissions_per_s",
               "p50_us", "p99_us", "resident_bp", "live_peak", "compactions",
               "retired"}};
  std::vector<std::string> names;
  std::vector<RunningStats> walls;
  for (const ConfigResult& r : results) {
    const double rate =
        r.wall_s > 0.0 ? static_cast<double>(r.report.submitted) / r.wall_s : 0.0;
    table.add_row({r.name, std::to_string(r.report.submitted),
                   std::to_string(r.report.admitted), format_double(r.wall_s, 4),
                   format_double(rate, 0), format_double(r.p50_us, 2),
                   format_double(r.p99_us, 2),
                   std::to_string(r.report.resident_breakpoints),
                   std::to_string(r.report.live_peak),
                   std::to_string(r.report.compactions),
                   std::to_string(r.report.breakpoints_retired)});
    RunningStats wall;
    wall.add(r.wall_s);
    names.push_back(r.name);
    walls.push_back(wall);
  }

  const double speedup = gc.wall_s > 0.0 ? nogc.wall_s / gc.wall_s : 0.0;
  std::cout << "GC speedup: " << format_double(speedup, 2) << "x over GC off\n";

  const std::string title = "Steady-state churn — admission service, " +
                            std::to_string(trace.size()) + " requests";
  bench::emit(title, table, args);
  if (!args.json_path.empty()) {
    bench::write_bench_json(args.json_path, "churn", title, table, names, walls);
    std::cout << "(json written to " << args.json_path << ")\n";
  }
  return 0;
}

}  // namespace
}  // namespace gridbw

int main(int argc, char** argv) { return gridbw::run(argc, argv); }
