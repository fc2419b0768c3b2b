// The gridbw_analyze command line, kept in the library so its exit status
// and flag surface are testable.

#include "analyze.hpp"

#include <chrono>
#include <cstddef>
#include <exception>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace gridbw::analyze {

namespace {

/// The --json-out report: a wrapper object so the scan stats travel with
/// the findings array (the array itself stays byte-identical across runs).
std::string json_report(const TreeReport& report, long long scan_ms) {
  std::string findings = render_json(report.findings);
  while (!findings.empty() && findings.back() == '\n') findings.pop_back();
  std::string out = "{\n";
  out += "  \"files_scanned\": " + std::to_string(report.files_scanned) + ",\n";
  out += "  \"scan_ms\": " + std::to_string(scan_ms) + ",\n";
  out += "  \"findings\": ";
  // Indent the embedded array body by two spaces for readability.
  for (const char c : findings) {
    out.push_back(c);
    if (c == '\n') out += "  ";
  }
  out += "\n}\n";
  return out;
}

}  // namespace

const char* usage_text() {
  return
      "usage: gridbw_analyze --root DIR [options]\n"
      "\n"
      "  --root DIR        repository root; scans src/ (all checks) plus\n"
      "                    tools/, bench/, and tests/ under per-root check\n"
      "                    profiles (fixtures/ directories are skipped)\n"
      "  --checks a,b,...  run only the listed checks (default: all)\n"
      "  --json-out FILE   also write the findings as a JSON report (with\n"
      "                    files_scanned and scan_ms) to FILE\n"
      "  --list-checks     print the check catalogue and exit\n"
      "  -h, --help        print this text and exit\n";
}

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  std::string root;
  std::string json_out_path;
  bool list_checks = false;
  Options options;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const bool takes_value =
        arg == "--root" || arg == "--checks" || arg == "--json-out";
    if (takes_value && i + 1 >= args.size()) {
      err << "gridbw-analyze: " << arg << " needs a value\n" << usage_text();
      return 2;
    }
    if (arg == "--root") {
      root = args[++i];
    } else if (arg == "--json-out") {
      json_out_path = args[++i];
    } else if (arg == "--checks") {
      std::istringstream list{args[++i]};
      std::string id;
      while (std::getline(list, id, ',')) {
        if (!id.empty()) options.checks.insert(id);
      }
    } else if (arg == "--list-checks") {
      list_checks = true;
    } else if (arg == "-h" || arg == "--help") {
      out << usage_text();
      return 0;
    } else {
      err << "gridbw-analyze: unknown argument '" << arg << "'\n"
          << usage_text();
      return 2;
    }
  }

  if (list_checks) {
    for (const CheckInfo& check : check_catalogue()) {
      out << check.id << "\n    " << check.summary << "\n";
    }
    return 0;
  }
  if (root.empty()) {
    err << "gridbw-analyze: --root is required\n" << usage_text();
    return 2;
  }
  for (const std::string& id : options.checks) {
    bool known = false;
    for (const CheckInfo& check : check_catalogue()) known |= id == check.id;
    if (!known) {
      err << "gridbw-analyze: unknown check '" << id
          << "' (see --list-checks)\n";
      return 2;
    }
  }

  try {
    // Scan wall-time is a tool statistic, not simulated time.
    // GRIDBW-ALLOW(wall-clock): measuring the analyzer itself.
    const auto scan_begin = std::chrono::steady_clock::now();
    const TreeReport report = analyze_tree(root, options);
    const long long scan_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            // GRIDBW-ALLOW(wall-clock): measuring the analyzer itself.
            std::chrono::steady_clock::now() - scan_begin)
            .count();

    if (!json_out_path.empty()) {
      // Temp file + rename: an aborted scan can never leave a truncated
      // report for the CI artifact upload.
      write_file_atomic(json_out_path, json_report(report, scan_ms));
    }
    for (const Finding& finding : report.findings) {
      out << finding.path << ":" << finding.line << ": [" << finding.check
          << "] " << finding.message << "\n";
    }
    for (const std::string& stale : report.stale_allows) {
      err << "gridbw-analyze: stale GRIDBW-ALLOW (unknown check id — delete "
             "it with the code it excused): "
          << stale << "\n";
    }
    err << "gridbw-analyze: " << report.files_scanned << " file(s), "
        << report.findings.size() << " finding(s), "
        << report.stale_allows.size() << " stale ALLOW(s), " << scan_ms
        << " ms\n";
    err << "gridbw-analyze: call graph: " << report.call_edges_resolved
        << " resolved edge(s), " << report.call_edges_unresolved
        << " unresolved call site(s) (informational)\n";
    return report.findings.empty() && report.stale_allows.empty() ? 0 : 1;
  } catch (const std::exception& error) {
    err << error.what() << "\n";
    return 2;
  }
}

}  // namespace gridbw::analyze
