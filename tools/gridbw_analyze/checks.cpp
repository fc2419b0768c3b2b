#include "analyze.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

namespace gridbw::analyze {

namespace {

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when text[pos..pos+word) equals `word` with identifier boundaries.
bool word_at(const std::string& text, std::size_t pos, const std::string& word) {
  if (text.compare(pos, word.size(), word) != 0) return false;
  if (pos > 0 && is_ident(text[pos - 1])) return false;
  const std::size_t end = pos + word.size();
  return end >= text.size() || !is_ident(text[end]);
}

std::size_t skip_ws(const std::string& text, std::size_t pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
    ++pos;
  }
  return pos;
}

/// 1-based line of a byte offset, given sorted line-start offsets.
int line_of(const std::vector<std::size_t>& starts, std::size_t pos) {
  const auto it = std::upper_bound(starts.begin(), starts.end(), pos);
  return static_cast<int>(it - starts.begin());
}

std::vector<std::size_t> line_starts_of(const std::string& text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

std::string join_code(const std::vector<std::string>& lines) {
  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i != 0) out.push_back('\n');
    out += lines[i];
  }
  return out;
}

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

/// Context shared by the per-file checks.
struct Scan {
  const SourceFile& file;
  const std::string& src_rel;      // path relative to src/
  const std::string& code;         // code lines joined
  const std::vector<std::size_t>& starts;  // line starts into `code`
  std::vector<Finding>* out;

  void report(std::size_t pos, const std::string& check, std::string message) const {
    report_line(line_of(starts, pos), check, std::move(message));
  }
  void report_line(int line, const std::string& check, std::string message) const {
    if (file.suppressed(line, check)) return;
    out->push_back(Finding{file.rel_path, line, check, std::move(message)});
  }
  [[nodiscard]] bool in_dir(const std::string& prefix) const {
    return src_rel.compare(0, prefix.size(), prefix) == 0;
  }
};

// ---------------------------------------------------------------------------
// layering
// ---------------------------------------------------------------------------

void check_layering(const Scan& scan) {
  const std::string from = module_of(scan.src_rel);
  for (std::size_t i = 0; i < scan.file.code_lines.size(); ++i) {
    const std::string& code_line = scan.file.code_lines[i];
    const std::size_t hash = code_line.find_first_not_of(" \t");
    if (hash == std::string::npos || code_line[hash] != '#') continue;
    const std::size_t kw = skip_ws(code_line, hash + 1);
    if (code_line.compare(kw, 7, "include") != 0) continue;
    // The stripper blanks string contents, so read the path from the raw
    // line (the directive itself survives stripping, proving it is code).
    const std::string& raw = scan.file.raw_lines[i];
    const std::size_t open = raw.find('"');
    if (open == std::string::npos) continue;  // <system> include
    const std::size_t close = raw.find('"', open + 1);
    if (close == std::string::npos) continue;
    const std::string target = raw.substr(open + 1, close - open - 1);
    if (target.find('/') == std::string::npos && target != "gridbw.hpp") continue;
    const int line = static_cast<int>(i) + 1;

    if (from.empty()) {
      scan.report_line(line, "layering",
                       "file is in an unknown module — add the directory to the "
                       "layering DAG in tools/gridbw_analyze/layering.cpp and "
                       "DESIGN.md §5f");
      return;  // one finding per unknown file is enough
    }
    // Carve-out: gridbw_obs may use the header-only id vocabulary.
    if (from == "obs" && target == "core/ids.hpp") continue;
    const std::string to = module_of(target);
    if (to.empty()) {
      scan.report_line(line, "layering",
                       "include of unknown module ('" + target +
                           "') — add it to the layering DAG in "
                           "tools/gridbw_analyze/layering.cpp");
      continue;
    }
    if (!layering_allows(from, to)) {
      scan.report_line(line, "layering",
                       "module '" + from + "' may not include '" + to + "' ('" +
                           target + "'); allowed modules: " +
                           layering_allowed_list(from));
    }
  }
}

// ---------------------------------------------------------------------------
// unordered-iter
// ---------------------------------------------------------------------------

/// Names of variables declared with an unordered container type in this file.
std::vector<std::string> unordered_vars(const std::string& code) {
  std::vector<std::string> vars;
  for (const char* token : {"unordered_map", "unordered_set"}) {
    std::size_t pos = 0;
    while ((pos = code.find(token, pos)) != std::string::npos) {
      const std::size_t token_end = pos + std::string(token).size();
      pos = token_end;
      std::size_t i = skip_ws(code, token_end);
      if (i >= code.size() || code[i] != '<') continue;
      int depth = 0;
      while (i < code.size()) {
        if (code[i] == '<') ++depth;
        if (code[i] == '>') {
          --depth;
          if (depth == 0) break;
        }
        ++i;
      }
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

void check_unordered_iter(const Scan& scan) {
  // Members declared in the sibling header (Schedule::index_,
  // EventQueue::actions_) are iterable from the .cpp, so their declarations
  // count even though they live in another file.
  for (const std::string& var :
       unordered_vars(scan.code + "\n" + scan.file.companion_code)) {
    std::size_t pos = 0;
    while ((pos = scan.code.find(var, pos)) != std::string::npos) {
      const std::size_t hit = pos;
      pos += var.size();
      if (!word_at(scan.code, hit, var)) continue;
      const std::size_t after = skip_ws(scan.code, hit + var.size());
      const bool begin_call =
          scan.code.compare(after, 8, ".begin()") == 0 ||
          scan.code.compare(after, 9, ".cbegin()") == 0;
      // Range-for: `for (... : var)` — a ':' directly before the name with a
      // `for` opener earlier on the same line.
      bool range_for = false;
      std::size_t before = hit;
      while (before > 0 && std::isspace(static_cast<unsigned char>(
                               scan.code[before - 1])) != 0) {
        --before;
      }
      if (before > 0 && scan.code[before - 1] == ':' &&
          (before < 2 || scan.code[before - 2] != ':')) {
        const int line = line_of(scan.starts, hit);
        const std::string& code_line =
            scan.file.code_lines[static_cast<std::size_t>(line) - 1];
        range_for = code_line.find("for") != std::string::npos;
      }
      if (begin_call || range_for) {
        scan.report(hit, "unordered-iter",
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

void check_wall_clock(const Scan& scan) {
  // Measurement of the machine, not simulated time, is confined to the
  // experiment harness's timing tables and the obs sinks' opt-in stamps.
  if (scan.src_rel == "metrics/experiment.cpp" || scan.in_dir("obs/")) return;
  static const char* kClocks[] = {
      "std::chrono::system_clock", "std::chrono::steady_clock",
      "std::chrono::high_resolution_clock"};
  const std::string message =
      "wall-clock read in deterministic code — simulated time flows through "
      "TimePoint";
  for (const char* clock_name : kClocks) {
    std::size_t pos = 0;
    while ((pos = scan.code.find(clock_name, pos)) != std::string::npos) {
      scan.report(pos, "wall-clock", message);
      pos += std::string(clock_name).size();
    }
  }
  std::size_t pos = 0;
  while ((pos = scan.code.find("gettimeofday", pos)) != std::string::npos) {
    if (word_at(scan.code, pos, "gettimeofday")) {
      scan.report(pos, "wall-clock", message);
    }
    pos += 12;
  }
  pos = 0;
  while ((pos = scan.code.find("std::time", pos)) != std::string::npos) {
    const std::size_t end = pos + 9;
    const bool boundary = end >= scan.code.size() || !is_ident(scan.code[end]);
    const std::size_t after = skip_ws(scan.code, end);
    if (boundary && after < scan.code.size() && scan.code[after] == '(') {
      scan.report(pos, "wall-clock", message);
    }
    pos = end;
  }
  pos = 0;
  while ((pos = scan.code.find("clock", pos)) != std::string::npos) {
    const std::size_t hit = pos;
    pos += 5;
    if (!word_at(scan.code, hit, "clock")) continue;
    std::size_t i = skip_ws(scan.code, hit + 5);
    if (i >= scan.code.size() || scan.code[i] != '(') continue;
    i = skip_ws(scan.code, i + 1);
    if (i < scan.code.size() && scan.code[i] == ')') {
      scan.report(hit, "wall-clock", message);
    }
  }
}

// ---------------------------------------------------------------------------
// rng-locality
// ---------------------------------------------------------------------------

void check_rng_locality(const Scan& scan) {
  if (scan.src_rel == "util/random.hpp" || scan.src_rel == "util/random.cpp") {
    return;
  }
  const std::string message =
      "random engine constructed outside util/random — derive a stream from "
      "gridbw::Rng so every experiment stays seed-deterministic";
  for (const char* token :
       {"std::mt19937", "std::minstd_rand", "std::random_device"}) {
    std::size_t pos = 0;
    while ((pos = scan.code.find(token, pos)) != std::string::npos) {
      scan.report(pos, "rng-locality", message);
      pos += std::string(token).size();
    }
  }
  for (const char* fn : {"rand", "srand"}) {
    std::size_t pos = 0;
    while ((pos = scan.code.find(fn, pos)) != std::string::npos) {
      const std::size_t hit = pos;
      pos += std::string(fn).size();
      if (!word_at(scan.code, hit, fn)) continue;
      const std::size_t after = skip_ws(scan.code, hit + std::string(fn).size());
      if (after < scan.code.size() && scan.code[after] == '(') {
        scan.report(hit, "rng-locality", message);
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
  for (const char* type : {"double", "float"}) {
    std::size_t pos = 0;
    while ((pos = code.find(type, pos)) != std::string::npos) {
      const std::size_t hit = pos;
      pos += std::string(type).size();
      if (!word_at(code, hit, type)) continue;
      std::size_t i = skip_ws(code, hit + std::string(type).size());
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

void check_float_format(const Scan& scan) {
  std::size_t pos = 0;
  while ((pos = scan.code.find("std::setprecision", pos)) != std::string::npos) {
    scan.report(pos, "float-format",
                "stream setprecision — sticky, locale-coupled float "
                "formatting; use format_double (util/table.hpp for reports, "
                "obs sinks for traces)");
    pos += 17;
  }
  const std::set<std::string> floats = float_decls(scan.code);
  pos = 0;
  while ((pos = scan.code.find("std::to_string", pos)) != std::string::npos) {
    const std::size_t hit = pos;
    pos += 14;
    std::size_t open = skip_ws(scan.code, hit + 14);
    if (open >= scan.code.size() || scan.code[open] != '(') continue;
    int depth = 0;
    std::size_t close = open;
    while (close < scan.code.size()) {
      if (scan.code[close] == '(') ++depth;
      if (scan.code[close] == ')') {
        --depth;
        if (depth == 0) break;
      }
      ++close;
    }
    if (close >= scan.code.size()) continue;
    const std::string arg = scan.code.substr(open + 1, close - open - 1);
    if (looks_float_expr(arg, floats)) {
      scan.report(hit, "float-format",
                  "std::to_string on a floating value — fixed 6-digit, "
                  "locale-dependent; use the shortest-round-trip "
                  "format_double helpers");
    }
  }
  // Inside the trace/export layer every float must take the shortest-
  // round-trip path; raw printf conversions are how drift sneaks in.
  if (scan.in_dir("obs/")) {
    for (std::size_t i = 0; i < scan.file.code_lines.size(); ++i) {
      if (scan.file.code_lines[i].find("printf") == std::string::npos) continue;
      const std::string& raw = scan.file.raw_lines[i];
      for (std::size_t j = 0; j + 1 < raw.size(); ++j) {
        if (raw[j] != '%') continue;
        std::size_t k = j + 1;
        while (k < raw.size() &&
               (std::isdigit(static_cast<unsigned char>(raw[k])) != 0 ||
                raw[k] == '.' || raw[k] == '-' || raw[k] == '+' ||
                raw[k] == '*' || raw[k] == '#' || raw[k] == ' ')) {
          ++k;
        }
        if (k < raw.size() && std::string("fFeEgGaA").find(raw[k]) !=
                                  std::string::npos) {
          scan.report_line(static_cast<int>(i) + 1, "float-format",
                          "raw printf float conversion in the trace/export "
                          "layer — use format_double (std::to_chars shortest "
                          "round-trip) so traces stay byte-identical");
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// unit-safety
// ---------------------------------------------------------------------------

void check_unit_safety(const Scan& scan) {
  const bool is_header =
      scan.src_rel.size() > 4 &&
      scan.src_rel.compare(scan.src_rel.size() - 4, 4, ".hpp") == 0;
  if (!is_header || scan.src_rel == "util/quantity.hpp") return;
  std::size_t pos = 0;
  while ((pos = scan.code.find("double", pos)) != std::string::npos) {
    const std::size_t hit = pos;
    pos += 6;
    if (!word_at(scan.code, hit, "double")) continue;
    std::size_t i = skip_ws(scan.code, hit + 6);
    while (i < scan.code.size() && (scan.code[i] == '&' || scan.code[i] == '*')) {
      i = skip_ws(scan.code, i + 1);
    }
    std::size_t end = i;
    while (end < scan.code.size() && is_ident(scan.code[end])) ++end;
    if (end == i) continue;
    const std::string name = scan.code.substr(i, end - i);
    if (!is_dimensioned_name(name)) continue;
    const std::size_t after = skip_ws(scan.code, end);
    const bool is_function = after < scan.code.size() && scan.code[after] == '(';
    scan.report(hit, "unit-safety",
                std::string{is_function
                    ? "raw double return '" : "raw double '"} + name +
                    (is_function ? "()'" : "'") +
                    " denotes a dimensioned quantity in a public header — "
                    "use Bandwidth/Volume/Duration/TimePoint from "
                    "util/quantity.hpp");
  }
}

// ---------------------------------------------------------------------------
// hot-path
// ---------------------------------------------------------------------------

void check_hot_path(const Scan& scan) {
  for (std::size_t i = 0; i < scan.file.raw_lines.size(); ++i) {
    // The annotation is a standalone comment line (`// gridbw:hot`), so
    // prose that merely mentions the marker does not annotate anything.
    const std::string& raw = scan.file.raw_lines[i];
    const std::size_t first = raw.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    const std::size_t last = raw.find_last_not_of(" \t\r");
    if (raw.compare(first, last - first + 1, "// gridbw:hot") != 0) continue;
    // The annotated function body: first '{' after the annotation line,
    // matched to its closing brace.
    const std::size_t search_from =
        i + 1 < scan.starts.size() ? scan.starts[i + 1] : scan.code.size();
    std::size_t open = scan.code.find('{', search_from);
    if (open == std::string::npos) continue;
    int depth = 0;
    std::size_t close = open;
    while (close < scan.code.size()) {
      if (scan.code[close] == '{') ++depth;
      if (scan.code[close] == '}') {
        --depth;
        if (depth == 0) break;
      }
      ++close;
    }
    const std::string body = scan.code.substr(open, close - open);
    struct Token {
      const char* token;
      bool word;
      const char* what;
    };
    static const Token kTokens[] = {
        {"throw", true, "throw"},
        {"new", true, "allocation (new)"},
        {"make_unique", true, "allocation (make_unique)"},
        {"make_shared", true, "allocation (make_shared)"},
        {"malloc", true, "allocation (malloc)"},
        {"calloc", true, "allocation (calloc)"},
        {"realloc", true, "allocation (realloc)"},
        {"dynamic_cast", true, "dynamic_cast"},
        {"->record(", false, "virtual sink call (TraceSink::record)"},
    };
    for (const Token& t : kTokens) {
      std::size_t pos = 0;
      const std::string token = t.token;
      while ((pos = body.find(token, pos)) != std::string::npos) {
        const std::size_t hit = pos;
        pos += token.size();
        if (t.word && !word_at(body, hit, token)) continue;
        scan.report(open + hit, "hot-path",
                    std::string{t.what} +
                        " inside a gridbw:hot function — hoist it out of the "
                        "hot path or drop the annotation");
      }
    }
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
      {"hot-path",
       "no throw/allocation/virtual-sink in functions marked // gridbw:hot"},
      {"lock-order",
       "nested mutex acquisitions follow declared gridbw:lock-order contracts"},
      {"guarded-by",
       "gridbw:guarded_by fields only touched with the named mutex held"},
      {"cv-wait-predicate",
       "condition_variable waits always use the predicate overload"},
      {"lock-scope-hygiene",
       "no throw/I-O/sink-call/blocking submit-join-wait while a lock is held"},
      {"atomic-discipline",
       "raw std::atomic and weak memory orders confined to sanctioned modules"},
      // The interprocedural family (callgraph.cpp): only tree scans run
      // these — a single file has no call graph to propagate over.
      {"hot-propagation",
       "everything reachable from a gridbw:hot body is transitively hot-clean"},
      {"requires-context",
       "gridbw:requires(mu) functions only called with mu held or propagated"},
      {"hot-call-unresolved",
       "virtual/std::function calls from hot contexts carry a GRIDBW-ALLOW"},
  };
  return kCatalogue;
}

std::vector<Finding> analyze_prepared(const SourceFile& file,
                                      const std::string& src_rel_path,
                                      const std::string& code,
                                      const std::vector<std::size_t>& starts,
                                      const ScopeInfo& scope,
                                      const Options& options) {
  std::vector<Finding> findings;
  const Scan scan{file, src_rel_path, code, starts, &findings};
  const auto enabled = [&](const char* id) {
    return options.checks.empty() || options.checks.count(id) != 0;
  };
  if (enabled("layering")) check_layering(scan);
  if (enabled("unordered-iter")) check_unordered_iter(scan);
  if (enabled("wall-clock")) check_wall_clock(scan);
  if (enabled("rng-locality")) check_rng_locality(scan);
  if (enabled("float-format")) check_float_format(scan);
  if (enabled("unit-safety")) check_unit_safety(scan);
  if (enabled("hot-path")) check_hot_path(scan);
  run_concurrency_checks(file, code, starts, scope, options, &findings);
  std::sort(findings.begin(), findings.end());
  return findings;
}

std::vector<Finding> analyze_file(const SourceFile& file,
                                  const std::string& src_rel_path,
                                  const Options& options) {
  const std::string code = join_code(file.code_lines);
  const std::vector<std::size_t> starts = line_starts_of(code);
  const ScopeInfo scope = build_scope_info(file, code, starts);
  return analyze_prepared(file, src_rel_path, code, starts, scope, options);
}

}  // namespace gridbw::analyze
