// The per-file catalogue: unordered-iter, wall-clock.

#include "scan.hpp"

#include <cctype>
#include <cstddef>
#include <string>
#include <vector>

namespace gridbw::analyze {

namespace {

// ---------------------------------------------------------------------------
// unordered-iter
// ---------------------------------------------------------------------------

/// Names of variables declared with an unordered container type in this file.
std::vector<std::string> unordered_vars(const std::string& code) {
  std::vector<std::string> vars;
  for (const std::string token : {"unordered_map", "unordered_set"}) {
    for (const std::size_t hit : find_all(code, token, false)) {
      std::size_t i = skip_ws(code, hit + token.size());
      if (i >= code.size() || code[i] != '<') continue;
      i = close_of(code, i, '<', '>');
      if (i >= code.size()) continue;
      i = skip_ws(code, i + 1);
      while (i < code.size() && (code[i] == '&' || code[i] == '*')) {
        i = skip_ws(code, i + 1);
      }
      std::size_t name_end = i;
      while (name_end < code.size() && is_ident(code[name_end])) ++name_end;
      if (name_end > i) vars.push_back(code.substr(i, name_end - i));
    }
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

void check_unordered_iter(FileEntry& entry) {
  const std::string& code = entry.file.code;
  // Members declared in the sibling header (Schedule::index_,
  // EventQueue::actions_) are iterable from the .cpp, so their declarations
  // count even though they live in another file.
  for (const std::string& var :
       unordered_vars(code + "\n" + entry.file.companion_code)) {
    for (const std::size_t hit : find_all(code, var, true)) {
      const std::size_t after = skip_ws(code, hit + var.size());
      const bool begin_call = code.compare(after, 8, ".begin()") == 0 ||
                              code.compare(after, 9, ".cbegin()") == 0;
      // Range-for: `for (... : var)` — a ':' directly before the name with a
      // `for` opener earlier on the same line.
      bool range_for = false;
      std::size_t before = hit;
      while (before > 0 &&
             std::isspace(static_cast<unsigned char>(code[before - 1])) != 0) {
        --before;
      }
      if (before > 0 && code[before - 1] == ':' &&
          (before < 2 || code[before - 2] != ':')) {
        const int line = line_of(entry.file.starts, hit);
        range_for = entry.file.code_lines[static_cast<std::size_t>(line) - 1]
                        .find("for") != std::string::npos;
      }
      if (begin_call || range_for) {
        report(entry, hit, "unordered-iter",
               "iteration over unordered container '" + var +
                   "' — order is unspecified and breaks byte-identical "
                   "traces/reports; iterate a sorted snapshot or an "
                   "ordered container (GRIDBW-ALLOW(unordered-iter) only "
                   "for provably order-independent reductions)");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// wall-clock
// ---------------------------------------------------------------------------

void check_wall_clock(FileEntry& entry) {
  // Measurement of the machine, not simulated time, is confined to the
  // experiment harness's timing tables and the obs sinks' opt-in stamps.
  if (entry.root_rel == "metrics/experiment.cpp" || entry.in_dir("obs/")) return;
  const std::string& code = entry.file.code;
  const std::string message =
      "wall-clock read in deterministic code — simulated time flows through "
      "TimePoint";
  for (const char* clock_name :
       {"std::chrono::system_clock", "std::chrono::steady_clock",
        "std::chrono::high_resolution_clock"}) {
    for (const std::size_t hit : find_all(code, clock_name, false)) {
      report(entry, hit, "wall-clock", message);
    }
  }
  for (const std::size_t hit : find_all(code, "gettimeofday", true)) {
    report(entry, hit, "wall-clock", message);
  }
  for (const std::size_t hit : find_all(code, "std::time", false)) {
    const std::size_t end = hit + 9;
    const std::size_t after = skip_ws(code, end);
    if ((end >= code.size() || !is_ident(code[end])) && after < code.size() &&
        code[after] == '(') {
      report(entry, hit, "wall-clock", message);
    }
  }
  for (const std::size_t hit : find_all(code, "clock", true)) {
    std::size_t i = skip_ws(code, hit + 5);
    if (i >= code.size() || code[i] != '(') continue;
    i = skip_ws(code, i + 1);
    if (i < code.size() && code[i] == ')') report(entry, hit, "wall-clock", message);
  }
}

}  // namespace

const std::vector<CheckInfo>& check_catalogue() {
  static const std::vector<CheckInfo> kCatalogue = {
      {"unordered-iter",
       "no iteration over unordered containers (unspecified order)"},
      {"wall-clock",
       "no real-time reads outside metrics/experiment.cpp and src/obs/"},
      // The interprocedural family (callgraph.cpp), run over the call graph.
      {"hot-propagation",
       "gridbw:hot bodies and everything they reach are hot-clean"},
      {"hot-call-unresolved",
       "virtual/std::function calls from hot contexts carry a GRIDBW-ALLOW"},
  };
  return kCatalogue;
}

void run_file_checks(FileEntry& entry) {
  check_unordered_iter(entry);
  check_wall_clock(entry);
}

}  // namespace gridbw::analyze
