// BOOK — ablation of the book-ahead extension: accept rate and mean start
// delay of advance reservations as the allowed horizon (number of intervals
// a request may be deferred) grows, against the plain WINDOW heuristic.
// Related-work [6] studies exactly this axis ("the impact of the percentage
// of book-ahead periods ... on the system").

#include <vector>

#include "bench_common.hpp"
#include "heuristics/flexible_bookahead.hpp"
#include "heuristics/registry.hpp"
#include "metrics/objectives.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace gridbw {
namespace {

using heuristics::BandwidthPolicy;

int run(int argc, const char* const* argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const workload::Scenario scenario = workload::paper_flexible(
      Duration::seconds(0.5), Duration::seconds(args.quick ? 300 : 800), 6.0);
  const Duration step = Duration::seconds(100);

  Table table{{"scheduler", "accept rate", "mean wait s", "mean stretch"}};

  auto add_row = [&](const heuristics::NamedScheduler& scheduler) {
    const auto stats = metrics::run_replicated(args.config, [&](Rng& rng, std::size_t) {
      const auto requests = workload::generate(scenario.spec, rng);
      const auto result = scheduler.run(scenario.network, requests);
      return metrics::MetricBag{
          {"accept", metrics::accept_rate(requests, result.schedule)},
          {"wait", metrics::start_delay_stats(requests, result.schedule).mean()},
          {"stretch", metrics::stretch_stats(requests, result.schedule).mean()}};
    });
    table.add_row({scheduler.name, bench::cell(metrics::metric(stats, "accept")),
                   format_double(metrics::metric(stats, "wait").mean(), 1),
                   format_double(metrics::metric(stats, "stretch").mean(), 2)});
  };

  heuristics::WindowOptions plain;
  plain.step = step;
  plain.policy = BandwidthPolicy::fraction_of_max(1.0);
  add_row(heuristics::make_window(plain));

  for (const std::size_t ahead : {0u, 1u, 2u, 4u, 8u, 16u}) {
    heuristics::BookAheadOptions opt;
    opt.step = step;
    opt.policy = BandwidthPolicy::fraction_of_max(1.0);
    opt.max_book_ahead = ahead;
    add_row(heuristics::NamedScheduler{
        "bookahead x" + std::to_string(ahead),
        [opt](const Network& n, std::span<const Request> r, obs::Observer* o) {
          return heuristics::schedule_flexible_bookahead(n, r, opt, o);
        }});
  }

  bench::emit("Book-ahead horizon — advance reservations vs WINDOW, heavy load",
              table, args);
  std::cout << "Accept rate should grow with the horizon while mean wait grows\n"
               "with it — the admission/latency trade related work [6] studies.\n";
  return 0;
}

}  // namespace
}  // namespace gridbw

int main(int argc, char** argv) { return gridbw::run(argc, argv); }
