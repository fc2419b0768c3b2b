// gridbw_analyze: in-tree static analyzer for the gridbw reproduction.
//
// A deliberately small lexer/preprocessor-lite (no libclang): it strips
// comments and string literals while preserving line numbers, parses
// `#include` directives, and runs a fixed catalogue of domain checks that
// no other wall of the repository (the compiler with -Wconversion, the test
// suite, ASan/UBSan, TSan, gridbw_lint, scripts/sim_grid.sh) catches:
//
//   unordered-iter  iteration over std::unordered_map/unordered_set — order
//                   is unspecified, so anything that flows into traces,
//                   reports, or schedule decisions breaks byte-identity
//   wall-clock      real-time reads outside the experiment harness and the
//                   observability sinks (simulated time flows via TimePoint)
//   hot-propagation (interprocedural) every `// gridbw:hot` body, and every
//                   function reachable from one over the call graph, must
//                   be hot-clean — no throw, allocation, dynamic_cast, or
//                   lock acquisition — unless a callee carries its own
//                   gridbw:hot / GRIDBW-ALLOW; findings print the call chain
//   hot-call-unresolved
//                   (interprocedural) calls from hot contexts through
//                   virtual methods or std::function values — sinks the
//                   graph cannot resolve — must be ALLOW-annotated
//
// DESIGN.md §5f names, for each check, the src/ mutation it alone catches.
//
// Scan roots: src/ (all checks), tools/, bench/, and tests/ with per-root
// check profiles (see scan_roots() in tree.cpp); directories named
// `fixtures` are excluded everywhere.
//
// Suppression: a `// GRIDBW-ALLOW(<check>): reason` comment on the finding
// line or the line directly above silences that one line for that check.
// It is the only exception mechanism. An ALLOW naming a check id that is
// not in the catalogue is stale and fails the scan like a finding.

#pragma once

#include <iosfwd>
#include <set>
#include <string>
#include <vector>

namespace gridbw::analyze {

/// One diagnostic. `line` is 1-based. Orderable so reports are deterministic.
struct Finding {
  std::string path;   // repo-relative, '/'-separated
  int line = 0;
  std::string check;  // check id, e.g. "wall-clock"
  std::string message;

  friend bool operator<(const Finding& a, const Finding& b) {
    if (a.path != b.path) return a.path < b.path;
    if (a.line != b.line) return a.line < b.line;
    if (a.check != b.check) return a.check < b.check;
    return a.message < b.message;
  }
  friend bool operator==(const Finding& a, const Finding& b) {
    return a.path == b.path && a.line == b.line && a.check == b.check &&
           a.message == b.message;
  }
};

/// A source file prepared for scanning: raw lines (for suppression
/// comments) plus code with comments/strings blanked out, both as lines and
/// joined with the line-start offsets every check reports through.
struct SourceFile {
  std::string rel_path;                 // repo-relative path
  std::vector<std::string> raw_lines;
  std::vector<std::string> code_lines;  // same line count as raw_lines
  std::string code;                     // code_lines joined with '\n'
  std::vector<std::size_t> starts;      // line-start offsets into `code`
  /// The sibling header (for x.cpp, x.hpp) when present: stripped text plus
  /// raw and stripped lines. Members and annotations declared there
  /// (unordered containers, gridbw:hot) count here too.
  std::string companion_code;
  std::vector<std::string> companion_raw_lines;
  std::vector<std::string> companion_code_lines;

  /// True when `line` (1-based) carries or is directly preceded by a
  /// `GRIDBW-ALLOW(<check>)` comment.
  [[nodiscard]] bool suppressed(int line, const std::string& check) const;
};

/// Blanks comments and string/char literals, preserving the line structure.
[[nodiscard]] std::string strip_comments_and_strings(const std::string& text);

/// Splits into lines (no trailing separators). An empty text is one empty line.
[[nodiscard]] std::vector<std::string> split_lines(const std::string& text);

/// Builds a SourceFile from in-memory text.
[[nodiscard]] SourceFile make_source(std::string rel_path, const std::string& text);

/// GRIDBW-ALLOW comments whose check id is not in the catalogue, rendered
/// as "path:line: id". Each one fails the scan: the suppression outlived its
/// check and should be deleted.
[[nodiscard]] std::vector<std::string> stale_allows_in(const SourceFile& file);

// ---------------------------------------------------------------------------
// Check catalogue
// ---------------------------------------------------------------------------

struct CheckInfo {
  const char* id;
  const char* summary;
};

/// All check ids with one-line summaries, in catalogue order.
[[nodiscard]] const std::vector<CheckInfo>& check_catalogue();

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

struct Options {
  /// Check ids to run; empty = all.
  std::set<std::string> checks;
};

/// One scan root under the repository and the check ids it does not run
/// (wall-clock is relaxed in bench/).
struct ScanRoot {
  const char* dir;
  std::set<std::string> skip;
};

/// The scanned roots in order: src, tools, bench, tests.
[[nodiscard]] const std::vector<ScanRoot>& scan_roots();

/// Result of a whole-tree scan: findings grouped by file in scan order and
/// sorted within each file.
struct TreeReport {
  std::vector<Finding> findings;
  std::size_t files_scanned = 0;
  /// GRIDBW-ALLOW comments naming unknown check ids ("path:line: id").
  std::vector<std::string> stale_allows;
  /// Functions the hot walk starts from (bound `// gridbw:hot` annotations).
  std::size_t hot_roots = 0;
  /// Call-graph statistics (informational, printed to stderr by the CLI):
  /// resolved counts candidate edges, unresolved counts call sites the
  /// suffix matcher could not bind to any indexed symbol (non-fatal by
  /// design — a lexical graph under-approximates).
  std::size_t call_edges_resolved = 0;
  std::size_t call_edges_unresolved = 0;
};

/// One file handed to analyze_loaded: repo-relative path, scan-root
/// coordinates, raw text, and the sibling header's text when one exists.
struct LoadedFile {
  std::string rel;       // repo-relative, '/'-separated
  std::string root_rel;  // relative to its scan root
  std::size_t root_index = 0;  // index into scan_roots()
  std::string text;
  std::string companion;       // sibling .hpp text (for .cpp files)
  bool has_companion = false;
};

/// The scan over an in-memory tree (analyze_tree loads from disk and
/// delegates here; tests hand in synthetic trees). `files` must be in final
/// report order (sorted path order within each root, roots in scan_roots()
/// order). Three serial phases: per-file tables (stripped code, scope model,
/// symbols, call sites), the interprocedural checks over the call graph,
/// then the per-file catalogue.
[[nodiscard]] TreeReport analyze_loaded(const std::vector<LoadedFile>& files,
                                        const Options& options);

/// Scans every `scan_roots()` directory under `root` recursively (files in
/// sorted path order; `src/` is mandatory, the rest optional; `fixtures`
/// directories are skipped). Throws std::runtime_error when `<root>/src` is
/// missing.
[[nodiscard]] TreeReport analyze_tree(const std::string& root,
                                      const Options& options);

/// Writes `body` to `path` via a temporary file in the same directory and an
/// atomic rename, so readers (and interrupted runs) never observe a
/// truncated file. Throws std::runtime_error on I/O failure.
void write_file_atomic(const std::string& path, const std::string& body);

/// Renders findings as a JSON array (deterministic field order).
[[nodiscard]] std::string render_json(const std::vector<Finding>& findings);

/// The CLI usage text.
[[nodiscard]] const char* usage_text();

/// The gridbw_analyze command line (arguments without the program name).
/// Returns the exit status: 0 clean (or --list-checks / -h), 1 findings or
/// stale GRIDBW-ALLOWs, 2 usage/IO error.
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

}  // namespace gridbw::analyze
