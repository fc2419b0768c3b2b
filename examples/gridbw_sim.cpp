// gridbw_sim — the full command-line simulator: generate (or load) a
// workload trace, run any scheduler by textual spec, report the paper's
// metrics, and optionally export the trace/schedule and an ASCII Gantt of
// port occupation.
//
//   ./gridbw_sim --scheduler=window:step=400,f=0.8
//                [--interarrival=2] [--horizon=1200] [--slack=4]
//                [--ports=10] [--capacity-gbps=1] [--seed=42]
//                [--trace-in=trace.csv] [--trace-out=trace.csv]
//                [--schedule-out=schedule.csv] [--gantt]
//                [--config=sim.ini] [--retries=N] [--retry-backoff=60]
//                [--compact]
//
// With --trace-in, the workload is replayed from disk instead of generated,
// so different schedulers can be compared on the byte-identical trace.
// Every settings or workload error — an unknown flag or a bare argument, a
// malformed flag or INI value, a port count below 1, a non-finite horizon,
// a malformed trace or a request outside the platform — is a named usage
// error: a message and exit 2. Rigid requests come from --slack=1 (there
// is no --rigid flag).
// With --config, defaults are read from an INI file ([workload] ports,
// capacity-gbps, interarrival, horizon, slack, seed; [scheduler] spec,
// retries, retry-backoff); command-line flags override the file.
// With --retries=N (N > 1), the scheduler spec is ignored and the workload
// runs through GREEDY with client resubmission (§2.3 "try later").

#include <iostream>
#include <stdexcept>
#include <string>

#include "gridbw.hpp"

namespace {

int run(const gridbw::Flags& flags) {
  using namespace gridbw;

  flags.require_known({"help", "scheduler", "interarrival", "horizon", "slack", "ports",
                       "capacity-gbps", "seed", "trace-in", "trace-out", "schedule-out",
                       "gantt", "config", "retries", "retry-backoff", "compact"});
  if (!flags.positional().empty()) {
    throw ValueError{flags.positional().front(), flags.positional().front(),
                     "a --key=value flag"};
  }
  if (flags.get_bool("help", false)) {
    std::cout << "gridbw_sim — schedule a bulk-transfer workload\n\n"
              << heuristics::scheduler_grammar();
    return 0;
  }

  // Layered configuration: built-in defaults < INI file < command line.
  Config config;
  if (flags.has("config")) {
    config = Config::parse_file(flags.get_string("config", ""));
  }
  auto setting_double = [&](const std::string& flag, const std::string& dotted,
                            double fallback) {
    return flags.has(flag) ? flags.get_double(flag, fallback)
                           : config.get_double(dotted, fallback);
  };
  auto setting_int = [&](const std::string& flag, const std::string& dotted,
                         std::int64_t fallback) {
    return flags.has(flag) ? flags.get_int(flag, fallback)
                           : config.get_int(dotted, fallback);
  };

  const std::int64_t port_count = setting_int("ports", "workload.ports", 10);
  if (port_count < 1) {
    throw ValueError{"--ports", std::to_string(port_count), "a port count >= 1"};
  }
  const auto ports = static_cast<std::size_t>(port_count);
  const Network network = Network::uniform(
      ports, ports,
      Bandwidth::gigabytes_per_second(
          setting_double("capacity-gbps", "workload.capacity-gbps", 1.0)));

  // Workload: from trace or generated.
  std::vector<Request> requests;
  if (flags.has("trace-in")) {
    // Malformed rows throw from the reader; ports outside the --ports
    // platform are named here.
    const std::string path = flags.get_string("trace-in", "");
    requests = workload::read_trace_file(path);
    for (const Request& r : requests) {
      if (r.ingress.value >= network.ingress_count() ||
          r.egress.value >= network.egress_count()) {
        std::cerr << "gridbw_sim: " << path << ": request " << r.id << " uses ingress "
                  << r.ingress.value << ", egress " << r.egress.value
                  << " outside the " << ports << "x" << ports << " platform (--ports)\n";
        return 2;
      }
    }
    std::cout << "loaded " << requests.size() << " requests from trace\n";
  } else {
    workload::WorkloadSpec spec;
    spec.ingress_count = ports;
    spec.egress_count = ports;
    spec.mean_interarrival = Duration::seconds(
        setting_double("interarrival", "workload.interarrival", 2.0));
    spec.horizon =
        Duration::seconds(setting_double("horizon", "workload.horizon", 1200.0));
    const double slack = setting_double("slack", "workload.slack", 4.0);
    spec.slack = slack <= 1.0 ? workload::SlackLaw::rigid()
                              : workload::SlackLaw::flexible(1.0, slack);
    Rng rng{static_cast<std::uint64_t>(setting_int("seed", "workload.seed", 42))};
    requests = workload::generate(spec, rng);
    std::cout << "generated " << requests.size() << " requests (expected load "
              << format_double(workload::expected_offered_load(spec, network), 2)
              << ")\n";
  }
  if (flags.has("trace-out")) {
    workload::write_trace_file(flags.get_string("trace-out", ""), requests);
  }

  // Scheduler by spec — or GREEDY-with-retries when --retries > 1.
  const std::string spec_text =
      flags.has("scheduler")
          ? flags.get_string("scheduler", "")
          : config.get_string("scheduler.spec", "window:step=400,f=0.8");
  const auto retries = static_cast<std::size_t>(
      setting_int("retries", "scheduler.retries", 1));

  std::string scheduler_name;
  ScheduleResult result;
  std::vector<Request> effective = requests;
  if (retries > 1) {
    heuristics::RetryPolicy retry;
    retry.max_attempts = retries;
    retry.initial_backoff = Duration::seconds(
        setting_double("retry-backoff", "scheduler.retry-backoff", 60.0));
    auto out = heuristics::schedule_greedy_with_retries(
        network, requests, heuristics::BandwidthPolicy::fraction_of_max(0.8), retry);
    scheduler_name = "greedy/f=0.80 + " + std::to_string(retries) + " attempts";
    result = std::move(out.result);
    effective = std::move(out.effective_requests);
    std::cout << "retries issued     : " << out.retries_issued << " ("
              << out.accepted_on_retry << " accepted on retry)\n";
  } else {
    heuristics::NamedScheduler scheduler = [&] {
      try {
        return heuristics::parse_scheduler(spec_text);
      } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << "\n\n" << heuristics::scheduler_grammar();
        std::exit(2);
      }
    }();
    scheduler_name = scheduler.name;
    result = scheduler.run(network, requests);
  }

  if (flags.get_bool("compact", false)) {
    auto compacted = heuristics::compact_schedule(network, effective, result.schedule,
                                                  {Duration::seconds(10)});
    std::cout << "compaction         : " << compacted.moved << " transfers advanced by "
              << to_string(compacted.total_advance) << " total\n";
    result.schedule = std::move(compacted.schedule);
  }

  const ValidationReport report = validate_schedule(network, effective, result.schedule);

  std::cout << "scheduler          : " << scheduler_name << "\n";
  std::cout << "schedule validity  : " << (report.ok() ? "valid" : report.to_string())
            << "\n";
  std::cout << "accepted           : " << result.accepted_count() << " / "
            << requests.size() << " (rate "
            << format_double(result.accept_rate(), 4) << ")\n";
  std::cout << "resource util §2.2 : "
            << format_double(
                   metrics::resource_util_paper(network, requests, result.schedule), 4)
            << "\n";
  const auto stretch = metrics::stretch_stats(requests, result.schedule);
  if (stretch.count() > 0) {
    std::cout << "stretch            : mean "
              << format_double(stretch.mean(), 2) << ", max "
              << format_double(stretch.max(), 2) << "\n";
  }
  const auto wait = metrics::start_delay_stats(requests, result.schedule);
  if (wait.count() > 0) {
    std::cout << "start delay        : mean " << format_double(wait.mean(), 1)
              << " s, max " << format_double(wait.max(), 1) << " s\n";
  }

  // Distribution of granted rates, as a histogram over MB/s.
  Histogram rates{0.0, 1000.0, 10};
  for (const Assignment& a : result.schedule.assignments()) {
    rates.add(a.bw.to_megabytes_per_second());
  }
  if (rates.total_count() > 0) {
    std::cout << "\ngranted rates (MB/s):\n" << rates.render(36);
  }

  if (flags.has("schedule-out")) {
    write_schedule_file(flags.get_string("schedule-out", ""), result.schedule);
    std::cout << "schedule written to " << flags.get_string("schedule-out", "") << "\n";
  }

  if (flags.get_bool("gantt", false) && !requests.empty()) {
    TimePoint first = TimePoint::infinity();
    TimePoint last = TimePoint::origin();
    for (const Request& r : requests) {
      first = min(first, r.release);
      last = max(last, r.release);
    }
    std::cout << "\ningress occupation over the arrival horizon:\n"
              << render_ingress_gantt(network, requests, result.schedule, first,
                                      last + Duration::seconds(1), 72);
  }
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(gridbw::Flags{argc, argv});
  } catch (const std::exception& e) {
    std::cerr << "gridbw_sim: " << e.what() << "\n";
    return 2;
  }
}
