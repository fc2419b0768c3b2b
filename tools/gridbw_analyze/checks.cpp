// The per-file catalogue: layering, unordered-iter, wall-clock,
// rng-locality, float-format, unit-safety.

#include "scan.hpp"

#include <cctype>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

namespace gridbw::analyze {

namespace {

std::string to_lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Splits an identifier into '_'-delimited lowercase components.
std::vector<std::string> name_components(const std::string& name) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : name) {
    if (c == '_') {
      if (!current.empty()) parts.push_back(to_lower(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) parts.push_back(to_lower(current));
  return parts;
}

const std::set<std::string>& dimensioned_fragments() {
  static const std::set<std::string> kFragments = {
      "bw",  "bandwidth", "rate",     "vol", "volume", "bytes", "bps",
      "cap", "capacity",  "seconds",  "sec", "secs"};
  return kFragments;
}

const std::set<std::string>& dimensionless_fragments() {
  static const std::set<std::string> kFragments = {
      "fraction", "factor", "weight",    "cost",  "util",    "ratio",
      "eps",      "epsilon", "tol",      "tolerance", "share", "scale",
      "f",        "accept",  "success",  "guarantee", "prob"};
  return kFragments;
}

bool is_dimensioned_name(const std::string& name) {
  bool dimensioned = false;
  for (const std::string& part : name_components(name)) {
    if (dimensionless_fragments().count(part) != 0) return false;
    if (dimensioned_fragments().count(part) != 0) dimensioned = true;
  }
  return dimensioned;
}

// ---------------------------------------------------------------------------
// layering
// ---------------------------------------------------------------------------

void check_layering(FileEntry& entry) {
  const std::string from = module_of(entry.root_rel);
  for (std::size_t i = 0; i < entry.file.code_lines.size(); ++i) {
    const std::string target = quoted_include(entry.file, i);
    if (target.find('/') == std::string::npos && target != "gridbw.hpp") continue;
    const std::size_t pos = entry.file.starts[i];

    if (from.empty()) {
      report(entry, pos, "layering",
             "file is in an unknown module — add the directory to the "
             "layering DAG in tools/gridbw_analyze/layering.cpp and "
             "DESIGN.md §5f");
      return;  // one finding per unknown file is enough
    }
    // Carve-out: gridbw_obs may use the header-only id vocabulary.
    if (from == "obs" && target == "core/ids.hpp") continue;
    const std::string to = module_of(target);
    if (to.empty()) {
      report(entry, pos, "layering",
             "include of unknown module ('" + target +
                 "') — add it to the layering DAG in "
                 "tools/gridbw_analyze/layering.cpp");
      continue;
    }
    if (!layering_allows(from, to)) {
      report(entry, pos, "layering",
             "module '" + from + "' may not include '" + to + "' ('" + target +
                 "'); allowed modules: " + layering_allowed_list(from));
    }
  }
}

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

// ---------------------------------------------------------------------------
// rng-locality
// ---------------------------------------------------------------------------

void check_rng_locality(FileEntry& entry) {
  if (entry.root_rel == "util/random.hpp" || entry.root_rel == "util/random.cpp") {
    return;
  }
  const std::string& code = entry.file.code;
  const std::string message =
      "random engine constructed outside util/random — derive a stream from "
      "gridbw::Rng so every experiment stays seed-deterministic";
  for (const char* token :
       {"std::mt19937", "std::minstd_rand", "std::random_device"}) {
    for (const std::size_t hit : find_all(code, token, false)) {
      report(entry, hit, "rng-locality", message);
    }
  }
  for (const std::string fn : {"rand", "srand"}) {
    for (const std::size_t hit : find_all(code, fn, true)) {
      const std::size_t after = skip_ws(code, hit + fn.size());
      if (after < code.size() && code[after] == '(') {
        report(entry, hit, "rng-locality", message);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// float-format
// ---------------------------------------------------------------------------

/// Identifiers declared as double/float in this file (approximation: any
/// `double name` / `float name` declaration context).
std::set<std::string> float_decls(const std::string& code) {
  std::set<std::string> names;
  for (const std::string type : {"double", "float"}) {
    for (const std::size_t hit : find_all(code, type, true)) {
      std::size_t i = skip_ws(code, hit + type.size());
      while (i < code.size() && (code[i] == '&' || code[i] == '*')) {
        i = skip_ws(code, i + 1);
      }
      std::size_t end = i;
      while (end < code.size() && is_ident(code[end])) ++end;
      if (end > i) names.insert(code.substr(i, end - i));
    }
  }
  return names;
}

bool looks_float_expr(const std::string& expr, const std::set<std::string>& floats) {
  // An explicit cast to an integral type makes the formatted value exact and
  // deterministic, whatever fed the cast.
  const std::size_t cast = expr.find("static_cast<");
  if (cast != std::string::npos) {
    const std::size_t close = expr.find('>', cast);
    if (close != std::string::npos) {
      const std::string type = expr.substr(cast + 12, close - cast - 12);
      if (type.find("double") == std::string::npos &&
          type.find("float") == std::string::npos) {
        return false;
      }
    }
  }
  static const char* kAccessors[] = {
      "to_seconds", "to_minutes", "to_hours", "to_bytes",
      "to_bytes_per_second", "to_megabits_per_second", "to_gigabytes"};
  for (const char* accessor : kAccessors) {
    if (expr.find(accessor) != std::string::npos) return true;
  }
  // Float literal: digit '.' digit.
  for (std::size_t i = 1; i + 1 < expr.size(); ++i) {
    if (expr[i] == '.' &&
        std::isdigit(static_cast<unsigned char>(expr[i - 1])) != 0 &&
        std::isdigit(static_cast<unsigned char>(expr[i + 1])) != 0) {
      return true;
    }
  }
  // Any identifier in the expression declared double/float in this file.
  // Member accesses (x.value, x->value) are fields of some other type, not
  // the local declaration, so they do not count.
  std::size_t i = 0;
  while (i < expr.size()) {
    if (is_ident(expr[i]) && (i == 0 || !is_ident(expr[i - 1]))) {
      std::size_t end = i;
      while (end < expr.size() && is_ident(expr[end])) ++end;
      const bool member =
          (i >= 1 && expr[i - 1] == '.') ||
          (i >= 2 && expr[i - 2] == '-' && expr[i - 1] == '>');
      if (!member && floats.count(expr.substr(i, end - i)) != 0) return true;
      i = end;
    } else {
      ++i;
    }
  }
  return false;
}

void check_float_format(FileEntry& entry) {
  const std::string& code = entry.file.code;
  for (const std::size_t hit : find_all(code, "std::setprecision", false)) {
    report(entry, hit, "float-format",
           "stream setprecision — sticky, locale-coupled float "
           "formatting; use format_double (util/table.hpp for reports, "
           "obs sinks for traces)");
  }
  const std::set<std::string> floats = float_decls(code);
  for (const std::size_t hit : find_all(code, "std::to_string", false)) {
    const std::size_t open = skip_ws(code, hit + 14);
    if (open >= code.size() || code[open] != '(') continue;
    const std::size_t close = close_of(code, open, '(', ')');
    if (close >= code.size()) continue;
    if (looks_float_expr(code.substr(open + 1, close - open - 1), floats)) {
      report(entry, hit, "float-format",
             "std::to_string on a floating value — fixed 6-digit, "
             "locale-dependent; use the shortest-round-trip "
             "format_double helpers");
    }
  }
  // Inside the trace/export layer every float must take the shortest-
  // round-trip path; raw printf conversions are how drift sneaks in.
  if (!entry.in_dir("obs/")) return;
  for (std::size_t i = 0; i < entry.file.code_lines.size(); ++i) {
    if (entry.file.code_lines[i].find("printf") == std::string::npos) continue;
    const std::string& raw = entry.file.raw_lines[i];
    for (std::size_t j = 0; j + 1 < raw.size(); ++j) {
      if (raw[j] != '%') continue;
      std::size_t k = j + 1;
      while (k < raw.size() &&
             (std::isdigit(static_cast<unsigned char>(raw[k])) != 0 ||
              std::string(".-+*# ").find(raw[k]) != std::string::npos)) {
        ++k;
      }
      if (k < raw.size() &&
          std::string("fFeEgGaA").find(raw[k]) != std::string::npos) {
        report(entry, entry.file.starts[i], "float-format",
               "raw printf float conversion in the trace/export "
               "layer — use format_double (std::to_chars shortest "
               "round-trip) so traces stay byte-identical");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// unit-safety
// ---------------------------------------------------------------------------

void check_unit_safety(FileEntry& entry) {
  const std::string& rel = entry.root_rel;
  const bool is_header =
      rel.size() > 4 && rel.compare(rel.size() - 4, 4, ".hpp") == 0;
  if (!is_header || rel == "util/quantity.hpp") return;
  const std::string& code = entry.file.code;
  for (const std::size_t hit : find_all(code, "double", true)) {
    std::size_t i = skip_ws(code, hit + 6);
    while (i < code.size() && (code[i] == '&' || code[i] == '*')) {
      i = skip_ws(code, i + 1);
    }
    std::size_t end = i;
    while (end < code.size() && is_ident(code[end])) ++end;
    if (end == i) continue;
    const std::string name = code.substr(i, end - i);
    if (!is_dimensioned_name(name)) continue;
    const std::size_t after = skip_ws(code, end);
    const bool is_function = after < code.size() && code[after] == '(';
    report(entry, hit, "unit-safety",
           std::string{is_function ? "raw double return '" : "raw double '"} +
               name + (is_function ? "()'" : "'") +
               " denotes a dimensioned quantity in a public header — "
               "use Bandwidth/Volume/Duration/TimePoint from "
               "util/quantity.hpp");
  }
}

}  // namespace

const std::vector<CheckInfo>& check_catalogue() {
  static const std::vector<CheckInfo> kCatalogue = {
      {"layering",
       "#include edges must follow the module DAG (DESIGN.md §5f)"},
      {"unordered-iter",
       "no iteration over unordered containers (unspecified order)"},
      {"wall-clock",
       "no real-time reads outside metrics/experiment.cpp and src/obs/"},
      {"rng-locality",
       "random engines constructed only inside util/random"},
      {"float-format",
       "float formatting goes through the shortest-round-trip helpers"},
      {"unit-safety",
       "no raw dimensioned doubles (*_bps/*_bytes/*_sec) in public headers"},
      {"guarded-by",
       "gridbw:guarded_by fields only touched with the named mutex held"},
      {"cv-wait-predicate",
       "condition_variable waits always use the predicate overload"},
      {"lock-scope-hygiene",
       "no throw/I-O/sink-call/blocking submit-join-wait while a lock is held"},
      {"atomic-discipline",
       "raw std::atomic and weak memory orders confined to sanctioned modules"},
      // The interprocedural family (callgraph.cpp), run over the call graph.
      {"hot-propagation",
       "gridbw:hot bodies and everything they reach are hot-clean"},
      {"hot-call-unresolved",
       "virtual/std::function calls from hot contexts carry a GRIDBW-ALLOW"},
  };
  return kCatalogue;
}

void run_file_checks(FileEntry& entry) {
  check_layering(entry);
  check_unordered_iter(entry);
  check_wall_clock(entry);
  check_rng_locality(entry);
  check_float_format(entry);
  check_unit_safety(entry);
}

}  // namespace gridbw::analyze
