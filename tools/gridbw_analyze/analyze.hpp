// gridbw_analyze: in-tree static analyzer for the gridbw reproduction.
//
// A deliberately small lexer/preprocessor-lite (no libclang): it strips
// comments and string literals while preserving line numbers, parses
// `#include` directives, and runs a fixed catalogue of domain checks the
// compiler and clang-tidy cannot express:
//
//   layering        #include edges must follow the module DAG documented in
//                   DESIGN.md §5f (core never includes heuristics, obs stays
//                   below core except the export layer, ...)
//   unordered-iter  iteration over std::unordered_map/unordered_set — order
//                   is unspecified, so anything that flows into traces,
//                   reports, or schedule decisions breaks byte-identity
//   wall-clock      real-time reads outside the experiment harness and the
//                   observability sinks (simulated time flows via TimePoint)
//   rng-locality    random engines constructed outside util/random
//   float-format    float formatting that bypasses the shortest-round-trip
//                   helpers (std::to_string on doubles, std::setprecision,
//                   raw printf floats inside the trace/export layer)
//   unit-safety     raw `double` parameters/members/returns in public
//                   headers whose names denote a dimensioned quantity
//                   (*_bps, *_bytes, *_sec, bandwidth, volume, ...)
//   hot-path        `throw`, allocation, or virtual-sink calls inside
//                   functions annotated `// gridbw:hot`
//   lock-order      mutex acquisition order inside a function must follow
//                   the file's declared gridbw:lock-order contracts, and
//                   nested acquisitions without a covering contract are
//                   findings too (the two-cell admission protocol)
//   guarded-by      fields annotated gridbw:guarded_by may only be touched
//                   in scopes where the named mutex is held via
//                   scoped_lock / lock_guard / unique_lock (or inside a
//                   function annotated gridbw:requires)
//   cv-wait-predicate
//                   every condition_variable wait uses the predicate
//                   overload — bare waits desynchronize on spurious wakeups
//   lock-scope-hygiene
//                   no throw, stream/printf I/O, virtual-sink ->record(
//                   call, or blocking submit/join/sleep while a lock is
//                   held — critical sections stay compute-only
//   atomic-discipline
//                   raw std::atomic outside the sanctioned modules
//                   (obs/counters, util/thread_pool), and every non-default
//                   memory_order argument, must carry a GRIDBW-ALLOW
//   hot-propagation (interprocedural, tree scans only) every function
//                   reachable over the call graph from a `// gridbw:hot`
//                   body must itself be hot-clean — no throw, allocation,
//                   dynamic_cast, sink ->record(, or lock acquisition —
//                   or carry its own gridbw:hot / GRIDBW-ALLOW; findings
//                   print the call chain from the hot root
//   requires-context
//                   (interprocedural) calls to gridbw:requires(mu)
//                   functions must come from a scope holding mu (RAII lock
//                   site) or from a function itself marked requires(mu)
//   hot-call-unresolved
//                   (interprocedural) calls from hot contexts through
//                   virtual methods or std::function values — sinks the
//                   graph cannot resolve — must be ALLOW-annotated
//
// Scan roots: src/ (all checks), tools/, bench/, and tests/ with per-root
// check profiles (see scan_roots() in baseline.cpp); directories named
// `fixtures` are excluded everywhere.
//
// Suppression: a `// GRIDBW-ALLOW(<check>): reason` comment on the finding
// line or the line directly above silences that one line for that check.
// An ALLOW naming a check id that is not in the catalogue is reported as
// stale (like a stale baseline entry). A committed baseline file
// (check|path|trimmed-line) lets pre-existing findings land incrementally;
// `--fix-baseline` rewrites it.

#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace gridbw::analyze {

/// One diagnostic. `line` is 1-based. Orderable so reports are deterministic.
struct Finding {
  std::string path;   // repo-relative, '/'-separated
  int line = 0;
  std::string check;  // check id, e.g. "layering"
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

/// A source file prepared for scanning: raw lines (for suppression comments
/// and baseline keys) plus code lines with comments/strings blanked out.
struct SourceFile {
  std::string rel_path;                 // relative to the scan root
  std::vector<std::string> raw_lines;
  std::vector<std::string> code_lines;  // same line count as raw_lines
  /// Stripped text of the sibling header (for x.cpp, x.hpp) when present:
  /// members declared there count for unordered-iter tracking here.
  std::string companion_code;
  /// The sibling header line by line, raw and stripped — annotations
  /// (gridbw:guarded_by, gridbw:lock-order) declared on header members
  /// bind in the .cpp as well.
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

/// Attaches sibling-header text to `file` (companion_code + line vectors).
void attach_companion(SourceFile& file, const std::string& text);

/// GRIDBW-ALLOW comments whose check id is not in the catalogue, rendered
/// as "path:line: id". Reported like stale baseline entries (stderr,
/// non-failing): the suppression is dead weight and should be deleted.
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
// Layering
// ---------------------------------------------------------------------------

/// Module of a src-relative path ("core/ledger.hpp" -> "core"). The
/// utilization export layer maps to "obs_export"; the umbrella gridbw.hpp
/// maps to "umbrella". Unknown directories return "" (reported separately).
[[nodiscard]] std::string module_of(const std::string& src_rel_path);

/// True when module `from` may include headers of module `to` (reflexive,
/// transitive closure of the CMake link graph).
[[nodiscard]] bool layering_allows(const std::string& from, const std::string& to);

/// The allowed include set of a module, for diagnostics ("" if unknown).
[[nodiscard]] std::string layering_allowed_list(const std::string& from);

// ---------------------------------------------------------------------------
// Scope model (scope.cpp)
// ---------------------------------------------------------------------------
//
// A brace/paren-tracking pass over the stripped code of one file: function
// bodies, lock acquisitions with their hold intervals, and the annotated
// locking contracts. Deliberately still lexical — no libclang — so the
// same heuristic spirit as the rest of the catalogue applies: names are
// matched textually and member accesses by suffix.

/// One lock acquisition site (scoped_lock / lock_guard / unique_lock
/// declaration, or a raw `expr.lock()` call).
struct LockSite {
  std::size_t pos = 0;        // byte offset of the acquisition in the code
  std::size_t release = 0;    // end of the hold: explicit unlock or scope end
  std::string var;            // lock object name ("" for raw .lock() calls)
  std::vector<std::string> mutexes;  // normalized mutex expressions
};

/// A function (or parameterized-lambda) body: offsets of its braces.
struct FunctionScope {
  std::size_t open = 0;
  std::size_t close = 0;
};

/// A `// gridbw:lock-order(first < second)` contract (file or companion).
struct LockOrderContract {
  std::string first;
  std::string second;
};

/// A field annotated `// gridbw:guarded_by(mutex)` on its declaration line.
struct GuardedField {
  std::string name;
  std::string mutex;
  int decl_line = 0;  // 1-based line in the declaring file; 0 = companion
};

/// A `// gridbw:requires(mu, ...)` annotation: the next function body runs
/// with the named mutexes held by the caller.
struct RequiresSite {
  std::size_t body_open = 0;
  std::size_t body_close = 0;
  std::vector<std::string> mutexes;
};

struct ScopeInfo {
  std::vector<FunctionScope> functions;  // outermost function bodies only
  std::vector<LockSite> locks;
  std::vector<LockOrderContract> contracts;
  std::vector<GuardedField> guarded;
  std::vector<RequiresSite> requires_held;
  std::vector<std::string> cv_names;  // condition_variable declarations
};

/// Builds the scope model for one file. `code` is the joined stripped text
/// and `starts` its line-start offsets (as produced inside analyze_file).
[[nodiscard]] ScopeInfo build_scope_info(const SourceFile& file,
                                         const std::string& code,
                                         const std::vector<std::size_t>& starts);

/// True when held mutex expression `held` satisfies a contract/annotation
/// naming `name`: exact match, or the member suffix after the last `.` /
/// `->` matches (`impl_->ingest_mu` satisfies `ingest_mu`).
[[nodiscard]] bool mutex_matches(const std::string& held, const std::string& name);

struct Options;  // forward declaration (defined below)

/// Runs the concurrency-discipline family (lock-order, guarded-by,
/// cv-wait-predicate, lock-scope-hygiene, atomic-discipline) over one file.
/// Called from analyze_file; `code` is the joined stripped text and `starts`
/// its line-start offsets. This overload builds the scope model itself.
void run_concurrency_checks(const SourceFile& file, const std::string& code,
                            const std::vector<std::size_t>& starts,
                            const Options& options, std::vector<Finding>* out);

/// Same, with a precomputed scope model (the two-phase tree scan builds it
/// once per file and reuses it for the symbol index and the call graph).
void run_concurrency_checks(const SourceFile& file, const std::string& code,
                            const std::vector<std::size_t>& starts,
                            const ScopeInfo& scope, const Options& options,
                            std::vector<Finding>* out);

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

struct Options {
  /// Check ids to run; empty = all.
  std::set<std::string> checks;
  /// Worker threads for the tree scan; 0 = hardware concurrency, 1 = serial.
  /// Output is deterministic (sorted findings) for every value.
  std::size_t threads = 0;
};

/// One scan root under the repository and the check ids it does not run
/// (e.g. wall-clock is relaxed in bench/, layering outside src/).
struct ScanRoot {
  const char* dir;
  std::set<std::string> skip;
};

/// The scanned roots in order: src, tools, bench, tests.
[[nodiscard]] const std::vector<ScanRoot>& scan_roots();

/// Runs every enabled check over one file. `src_rel_path` is the path
/// relative to the scan root (for src/ it is used for module mapping and
/// per-module allowances); `file.rel_path` is the repo-relative path used
/// in findings and the atomic-discipline allowlist.
[[nodiscard]] std::vector<Finding> analyze_file(const SourceFile& file,
                                                const std::string& src_rel_path,
                                                const Options& options);

/// The intraprocedural half of analyze_file with the per-file artifacts
/// (joined stripped code, line starts, scope model) precomputed — the
/// phase-2 worker of the tree scan, which builds them once in phase 1 and
/// reuses them for the symbol index and the call graph. The findings come
/// back sorted. The three interprocedural checks (hot-propagation,
/// requires-context, hot-call-unresolved) only run in tree scans, where the
/// global call graph exists.
[[nodiscard]] std::vector<Finding> analyze_prepared(
    const SourceFile& file, const std::string& src_rel_path,
    const std::string& code, const std::vector<std::size_t>& starts,
    const ScopeInfo& scope, const Options& options);

/// Result of a whole-tree scan: findings sorted deterministically, with the
/// parallel baseline key for each finding.
struct TreeReport {
  std::vector<Finding> findings;
  std::vector<std::string> keys;  // keys[i] is baseline_key(findings[i])
  std::size_t files_scanned = 0;
  /// GRIDBW-ALLOW comments naming unknown check ids ("path:line: id").
  std::vector<std::string> stale_allows;
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

/// The two-phase scan over an in-memory tree (analyze_tree loads from disk
/// and delegates here; tests can hand in synthetic trees). `files` must be
/// in final report order (sorted path order within each root, roots in
/// scan_roots() order). Phase 1 builds per-file code/scope/symbol/call
/// tables in parallel; the interprocedural checks then run serially over
/// the merged tables; phase 2 runs the intraprocedural catalogue in
/// parallel and merges findings back in `files` order — byte-identical
/// output for any thread count.
[[nodiscard]] TreeReport analyze_loaded(const std::vector<LoadedFile>& files,
                                        const Options& options);

/// Scans every `scan_roots()` directory under `root` recursively (files in
/// sorted path order; `src/` is mandatory, the rest optional; `fixtures`
/// directories are skipped). The per-file work fans out over a
/// gridbw::ThreadPool (`options.threads`); findings are merged back in
/// path order, so the report is byte-identical for any thread count.
/// Throws std::runtime_error when `<root>/src` is missing.
[[nodiscard]] TreeReport analyze_tree(const std::string& root,
                                      const Options& options);

/// Writes `body` to `path` via a temporary file in the same directory and an
/// atomic rename, so readers (and interrupted runs) never observe a
/// truncated file. Throws std::runtime_error on I/O failure.
void write_file_atomic(const std::string& path, const std::string& body);

/// The CLI usage text (lib-level so tests can pin it).
[[nodiscard]] const char* usage_text();

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

/// Baseline key for a finding: "check|path|trimmed raw line text". Content-
/// based (not line-number-based) so unrelated edits do not invalidate it.
[[nodiscard]] std::string baseline_key(const Finding& finding,
                                       const SourceFile& file);

/// A parsed baseline: multiset of keys (the same key may appear N times).
using Baseline = std::map<std::string, int>;

/// Parses a baseline file body. Lines starting with '#' and blank lines are
/// ignored.
[[nodiscard]] Baseline parse_baseline(const std::string& text);

/// Splits findings into (new, baselined) against `baseline`, consuming
/// entries; leftover baseline entries are returned in `stale`.
struct BaselineSplit {
  std::vector<Finding> fresh;
  std::vector<Finding> baselined;
  std::vector<std::string> stale;
};
[[nodiscard]] BaselineSplit apply_baseline(const std::vector<Finding>& findings,
                                           const std::vector<std::string>& keys,
                                           const Baseline& baseline);

/// Serializes findings as a baseline file body (sorted, with header).
[[nodiscard]] std::string render_baseline(const std::vector<std::string>& keys);

/// Renders findings as a JSON array (deterministic field order).
[[nodiscard]] std::string render_json(const std::vector<Finding>& findings);

}  // namespace gridbw::analyze
