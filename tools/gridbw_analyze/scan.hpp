// Internal tables of one gridbw_analyze tree scan: the lexer helpers every
// check shares, the per-file scope model (scope.cpp), symbol index
// (symbols.cpp) and call sites (callgraph.cpp), and the one reporting path.
//
// Everything here is deliberately lexical — names are matched textually and
// member accesses by suffix — so a construct the lexer cannot read is
// skipped (an unindexed function makes a call edge unresolved), never
// guessed at.

#pragma once

#include "analyze.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

namespace gridbw::analyze {

// ---------------------------------------------------------------------------
// Lexer helpers over stripped code
// ---------------------------------------------------------------------------

inline bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when text[pos..pos+word) equals `word` with identifier boundaries.
inline bool word_at(const std::string& text, std::size_t pos,
                    const std::string& word) {
  if (text.compare(pos, word.size(), word) != 0) return false;
  if (pos > 0 && is_ident(text[pos - 1])) return false;
  const std::size_t end = pos + word.size();
  return end >= text.size() || !is_ident(text[end]);
}

inline std::size_t skip_ws(const std::string& text, std::size_t pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
    ++pos;
  }
  return pos;
}

/// Offsets of every occurrence of `token` in text[from, to), scanning left
/// to right and resuming after each match. With `word`, only occurrences
/// with identifier boundaries on both sides count.
inline std::vector<std::size_t> find_all(const std::string& text,
                                         const std::string& token, bool word,
                                         std::size_t from = 0,
                                         std::size_t to = std::string::npos) {
  std::vector<std::size_t> hits;
  std::size_t pos = from;
  while ((pos = text.find(token, pos)) != std::string::npos && pos < to) {
    if (!word || word_at(text, pos, token)) hits.push_back(pos);
    pos += token.size();
  }
  return hits;
}

/// Offset of the bracket closing the one opened at text[open] (`up` opens,
/// `down` closes; nesting counted), or text.size() when unbalanced.
inline std::size_t close_of(const std::string& text, std::size_t open, char up,
                            char down) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == up) ++depth;
    if (text[i] == down && --depth == 0) return i;
  }
  return text.size();
}

/// 1-based line of a byte offset, given sorted line-start offsets.
inline int line_of(const std::vector<std::size_t>& starts, std::size_t pos) {
  const auto it = std::upper_bound(starts.begin(), starts.end(), pos);
  return static_cast<int>(it - starts.begin());
}

inline std::string trim(const std::string& s) {
  const std::size_t first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const std::size_t last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

/// The path of a `#include "..."` directive on line `i`, or "" for other
/// lines and <system> includes. The stripper blanks string contents, so the
/// path is read from the raw line once the stripped one proves the
/// directive is code.
inline std::string quoted_include(const SourceFile& file, std::size_t i) {
  const std::string& code_line = file.code_lines[i];
  const std::size_t hash = code_line.find_first_not_of(" \t");
  if (hash == std::string::npos || code_line[hash] != '#') return "";
  if (code_line.compare(skip_ws(code_line, hash + 1), 7, "include") != 0) {
    return "";
  }
  const std::string& raw = file.raw_lines[i];
  const std::size_t open = raw.find('"');
  if (open == std::string::npos) return "";
  const std::size_t close = raw.find('"', open + 1);
  if (close == std::string::npos) return "";
  return raw.substr(open + 1, close - open - 1);
}

// ---------------------------------------------------------------------------
// Scope model (scope.cpp)
// ---------------------------------------------------------------------------

/// A function body: offsets of its braces.
struct FunctionScope {
  std::size_t open = 0;
  std::size_t close = 0;
};

/// The outermost function bodies of `file`, in position order.
[[nodiscard]] std::vector<FunctionScope> outermost_functions(const SourceFile& file);

/// Position of the '(' opening the parameter list of the header whose body
/// opens at code[open]; npos when the brace has no such header.
[[nodiscard]] std::size_t header_param_open(const std::string& code,
                                            std::size_t open);

// ---------------------------------------------------------------------------
// Symbol index (symbols.cpp)
// ---------------------------------------------------------------------------

/// One outermost function definition in one file.
struct Symbol {
  std::string qualified;  // as written before '(', e.g. "NetworkLedger::fits"
  std::string name;       // last '::' component
  std::size_t body_open = 0;   // offsets into the file's stripped code
  std::size_t body_close = 0;
  int line = 0;                // 1-based line of the body-open brace
  bool hot = false;            // // gridbw:hot on the definition or the
                               // sibling-header declaration (name-bound)
  bool hot_allow = false;      // GRIDBW-ALLOW(hot-propagation) on the
                               // definition header line (or the line above)
};

/// Everything the call graph needs from one file.
struct FileSymbols {
  std::vector<Symbol> symbols;               // in body_open order
  std::vector<std::string> quoted_includes;  // #include "..." paths as written
  /// Names declared with std::function type in this file or its companion —
  /// calls through them can never be resolved by the graph.
  std::vector<std::string> callable_names;
  /// Method names declared `virtual` here (destructors excluded) — the
  /// global union forms the virtual-sink name set.
  std::vector<std::string> virtual_methods;
};

[[nodiscard]] FileSymbols extract_symbols(const SourceFile& file,
                                          const std::vector<FunctionScope>& functions);

// ---------------------------------------------------------------------------
// Call sites and the per-file entry (callgraph.cpp)
// ---------------------------------------------------------------------------

/// One candidate call site in one file's stripped code.
struct CallSite {
  std::size_t pos = 0;   // offset of the first character of the name
  std::string name;      // as written, possibly qualified ("Impl::collect")
  bool member = false;   // preceded by '.' or '->'
  /// body_open of the enclosing outermost function scope; npos at file scope.
  std::size_t enclosing_body = std::string::npos;
};

/// Extracts call sites: an identifier (with optional '::' qualification)
/// directly followed by '(', minus keywords, functional casts on
/// fundamental types, and declaration-shaped sites. Calls through explicit
/// template arguments (`f<T>(...)`) are not extracted.
[[nodiscard]] std::vector<CallSite> extract_calls(const std::string& code,
                                                  const std::vector<FunctionScope>& functions);

/// Every table of one scanned file, plus the findings reported against it.
struct FileEntry {
  std::string root_rel;  // relative to the scan root ("core/ledger.cpp")
  SourceFile file;
  std::vector<FunctionScope> functions;  // outermost bodies
  FileSymbols symbols;
  std::vector<CallSite> calls;
  const std::set<std::string>* checks = nullptr;  // enabled in this root
  std::vector<Finding> findings;

  [[nodiscard]] bool in_dir(const std::string& prefix) const {
    return root_rel.compare(0, prefix.size(), prefix) == 0;
  }
};

/// The one reporting path of every check: a finding at byte offset `pos` of
/// the entry's code, dropped when the check is off in the entry's scan root
/// or an ALLOW comment naming the check covers the line.
inline void report(FileEntry& entry, std::size_t pos, const std::string& check,
                   std::string message) {
  if (entry.checks->count(check) == 0) return;
  const int line = line_of(entry.file.starts, pos);
  if (entry.file.suppressed(line, check)) return;
  entry.findings.push_back(
      Finding{entry.file.rel_path, line, check, std::move(message)});
}

/// The per-file catalogue (checks.cpp): unordered-iter, wall-clock.
void run_file_checks(FileEntry& entry);

/// hot-propagation and hot-call-unresolved over the call graph of all
/// entries (in scan order); findings land in the entry of the file they
/// point at. Fills the report's graph statistics.
void run_interprocedural_checks(std::vector<FileEntry>& entries,
                                TreeReport& report);

}  // namespace gridbw::analyze
