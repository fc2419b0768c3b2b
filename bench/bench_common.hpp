// Shared plumbing for the figure-reproduction benches: flag parsing,
// replication configs, and consistent table/CSV/JSON output. Every bench
// accepts
//
//   --reps=N        replications per sweep point (default 8)
//   --threads=N     worker threads (default: hardware concurrency)
//   --seed=S        base seed (default 42)
//   --quick         cut workloads down for smoke runs
//   --csv=PATH      also write the table as CSV
//   --json=PATH     also write the table + timing as a BENCH_*.json
//   --trace=PATH    dump a JSONL admission trace of one representative
//                   workload (base seed) through every heuristic
//   --util-out=PATH dump per-port utilization for the same replay
//                   (CSV, or JSONL objects when PATH ends in .json)
//
// plus its own keys, if any, and prints the same series the corresponding
// paper figure plots, followed by a per-heuristic wall-clock timing table.
// An unknown flag or a bare argument prints the usage and exits 2 before
// any run starts.

#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "heuristics/registry.hpp"
#include "metrics/experiment.hpp"
#include "obs/counters.hpp"
#include "obs/observer.hpp"
#include "obs/trace_sink.hpp"
#include "obs_export/utilization.hpp"
#include "util/flags.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

namespace gridbw::bench {

struct BenchArgs {
  metrics::ExperimentConfig config;
  bool quick{false};
  std::string csv_path;
  std::string json_path;
  std::string trace_path;
  std::string util_path;

  /// True when `--trace` or `--util-out` asks for an observability replay.
  [[nodiscard]] bool wants_observability() const {
    return !trace_path.empty() || !util_path.empty();
  }

  /// Parses the flags above plus the bench's own keys `extra` (e.g.
  /// "requests"); exits 2 with the usage on any other flag.
  static BenchArgs parse(int argc, const char* const* argv,
                         std::initializer_list<std::string_view> extra = {}) {
    const Flags flags{argc, argv};
    std::vector<std::string_view> known{"reps", "threads", "seed",  "quick",
                                        "csv",  "json",    "trace", "util-out"};
    known.insert(known.end(), extra.begin(), extra.end());
    try {
      flags.require_known(known);
      if (!flags.positional().empty()) {
        throw ValueError{flags.positional().front(), flags.positional().front(),
                         "a --key=value flag"};
      }
    } catch (const ValueError& e) {
      std::cerr << argv[0] << ": " << e.what() << "\nflags:";
      for (const std::string_view key : known) std::cerr << " --" << key;
      std::cerr << "\n";
      std::exit(2);
    }
    BenchArgs args;
    args.config.replications =
        static_cast<std::size_t>(flags.get_int("reps", 8));
    args.config.threads = static_cast<std::size_t>(flags.get_int("threads", 0));
    args.config.base_seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
    args.quick = flags.get_bool("quick", false);
    args.csv_path = flags.get_string("csv", "");
    args.json_path = flags.get_string("json", "");
    args.trace_path = flags.get_string("trace", "");
    args.util_path = flags.get_string("util-out", "");
    if (args.quick && !flags.has("reps")) args.config.replications = 3;
    return args;
  }
};

/// Replays `requests` through every scheduler in `lineup` with an attached
/// observer and writes the artifacts the `--trace` / `--util-out` flags ask
/// for. The caller generates `requests` deterministically from the base
/// seed; the JSONL sink never stamps wall-clock time by default, so two
/// same-seed runs produce byte-identical traces. Each scheduler's run is
/// bracketed by meta lines (`scheduler`, then `accepted`/`rejected` totals
/// taken from its ScheduleResult) so the trace is self-reconciling.
inline void dump_observability(const BenchArgs& args, const Network& network,
                               std::span<const Request> requests,
                               std::span<const heuristics::NamedScheduler> lineup,
                               std::string_view workload_label) {
  if (!args.wants_observability()) return;

  std::optional<obs::JsonlSink> sink;
  if (!args.trace_path.empty()) {
    sink.emplace(args.trace_path);
    sink->annotate("workload", workload_label);
    sink->annotate("seed", std::to_string(args.config.base_seed));
  }
  std::ofstream util_out;
  const bool util_json =
      args.util_path.size() >= 5 &&
      args.util_path.compare(args.util_path.size() - 5, 5, ".json") == 0;
  if (!args.util_path.empty()) {
    util_out.open(args.util_path);
    if (!util_json) obs::UtilizationReport::write_csv_header(util_out);
  }

  TimePoint window_end = TimePoint::origin();
  for (const Request& r : requests) window_end = max(window_end, r.deadline);

  obs::CounterRegistry counters;
  for (const auto& h : lineup) {
    if (sink) sink->annotate("scheduler", h.name);
    obs::Observer observer{sink ? &*sink : nullptr, &counters};
    const ScheduleResult result = h.run(network, requests, &observer);
    if (sink) {
      sink->annotate("accepted", std::to_string(result.accepted_count()));
      sink->annotate("rejected", std::to_string(result.rejected.size()));
    }
    if (util_out.is_open()) {
      const obs::UtilizationReport report = obs::utilization_report(
          network, requests, result.schedule, TimePoint::origin(), window_end);
      if (util_json) {
        report.write_json(util_out, h.name);
      } else {
        report.write_csv(util_out, h.name);
      }
    }
  }
  if (sink) {
    sink->flush();
    std::cout << "(trace written to " << args.trace_path << ")\n";
  }
  if (util_out.is_open()) {
    std::cout << "(utilization written to " << args.util_path << ")\n";
  }
  std::cout.flush();
}

/// Prints the banner, the table, and (optionally) the CSV file.
inline void emit(const std::string& title, const Table& table,
                 const BenchArgs& args) {
  std::cout << "\n=== " << title << " ===\n";
  table.print(std::cout);
  if (!args.csv_path.empty()) {
    std::ofstream out{args.csv_path};
    out << table.to_csv();
    std::cout << "(csv written to " << args.csv_path << ")\n";
  }
  std::cout.flush();
}

/// "0.5321 ±0.0123" cell.
inline std::string cell(const RunningStats& stats) {
  return format_mean_ci(stats);
}

/// Per-task wall-clock table: one row per heuristic, aggregated over every
/// replication of every sweep point.
inline Table timing_table(const std::vector<std::string>& names,
                          const std::vector<RunningStats>& wall_seconds) {
  Table table{{"heuristic", "wall_s (per run)", "total_s", "runs"}};
  for (std::size_t t = 0; t < names.size(); ++t) {
    const RunningStats& w = wall_seconds[t];
    table.add_row({names[t], format_mean_ci(w),
                   format_double(w.mean() * static_cast<double>(w.count()), 3),
                   std::to_string(w.count())});
  }
  return table;
}

/// Minimal RFC 8259 string escaping (the cells are ASCII table text).
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Writes the bench result as a small self-describing JSON document:
/// {"bench": ..., "title": ..., "columns": [...], "rows": [[...]],
///  "timing": {"<heuristic>": {"mean_s":, "stddev_s":, "total_s":, "runs":}}}.
inline void write_bench_json(const std::string& path, const std::string& bench,
                             const std::string& title, const Table& table,
                             const std::vector<std::string>& names,
                             const std::vector<RunningStats>& wall_seconds) {
  std::ofstream out{path};
  out << "{\n  \"bench\": \"" << json_escape(bench) << "\",\n";
  out << "  \"title\": \"" << json_escape(title) << "\",\n";
  out << "  \"columns\": [";
  for (std::size_t c = 0; c < table.header().size(); ++c) {
    out << (c == 0 ? "" : ", ") << '"' << json_escape(table.header()[c]) << '"';
  }
  out << "],\n  \"rows\": [\n";
  const auto& rows = table.rows();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    out << "    [";
    for (std::size_t c = 0; c < rows[r].size(); ++c) {
      out << (c == 0 ? "" : ", ") << '"' << json_escape(rows[r][c]) << '"';
    }
    out << (r + 1 < rows.size() ? "],\n" : "]\n");
  }
  out << "  ],\n  \"timing\": {\n";
  for (std::size_t t = 0; t < names.size(); ++t) {
    const RunningStats& w = wall_seconds[t];
    char buf[160];
    // A single run has no spread to report: emit null instead of a fake
    // zero variance so downstream tooling cannot mistake it for a real
    // (perfectly stable) measurement.
    if (w.count() > 1) {
      std::snprintf(buf, sizeof buf,
                    "{\"mean_s\": %.6f, \"stddev_s\": %.6f, \"total_s\": %.6f, "
                    "\"runs\": %zu}",
                    w.mean(), w.stddev(),
                    w.mean() * static_cast<double>(w.count()), w.count());
    } else {
      std::snprintf(buf, sizeof buf,
                    "{\"mean_s\": %.6f, \"stddev_s\": null, \"total_s\": %.6f, "
                    "\"runs\": %zu}",
                    w.count() > 0 ? w.mean() : 0.0,
                    w.count() > 0 ? w.mean() : 0.0, w.count());
    }
    out << "    \"" << json_escape(names[t]) << "\": " << buf
        << (t + 1 < names.size() ? ",\n" : "\n");
  }
  out << "  }\n}\n";
}

/// Prints the timing table and, when --json was given, persists the main
/// table plus timing. `wall_seconds` is indexed like `names`.
inline void emit_timing(const std::string& bench, const std::string& title,
                        const Table& table, const std::vector<std::string>& names,
                        const std::vector<RunningStats>& wall_seconds,
                        const BenchArgs& args) {
  Table timing = timing_table(names, wall_seconds);
  std::cout << "\n=== " << title << " — timing ===\n";
  timing.print(std::cout);
  if (!args.json_path.empty()) {
    write_bench_json(args.json_path, bench, title, table, names, wall_seconds);
    std::cout << "(json written to " << args.json_path << ")\n";
  }
  std::cout.flush();
}

}  // namespace gridbw::bench
