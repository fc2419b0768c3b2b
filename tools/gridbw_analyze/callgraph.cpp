// Deterministic project-wide call graph and the two checks on top of it.
//
// Resolution is best-effort and lexical, like the symbol index it consumes:
// a call edge is drawn only when the callee name (suffix-aware on '::'
// components) matches a symbol defined in the caller's include closure
// (quoted #includes, transitively, plus the sibling header/source of every
// file in the closure). `std::`-qualified calls are external by definition.
// Everything else that cannot be matched is counted as an unresolved edge,
// never fatal: a lexical scanner must under-approximate the graph, not
// invent edges across unrelated modules. Files and symbols are visited in
// scan order, so every chain and finding is deterministic.
//
//   hot-propagation      every `// gridbw:hot` body, and every function the
//                        walk reaches from one over resolved edges, must be
//                        hot-clean (no throw/alloc/dynamic_cast/lock
//                        acquisition). A callee with its own gridbw:hot or a
//                        GRIDBW-ALLOW(hot-propagation) stops the walk.
//                        Findings print the call chain from the hot root.
//   hot-call-unresolved  calls from hot-context bodies through sinks the
//                        graph cannot resolve — std::function-typed
//                        callables and virtual methods — must carry a
//                        GRIDBW-ALLOW(hot-call-unresolved) justification.

#include "scan.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace gridbw::analyze {

namespace {

/// Names that look like calls lexically but never are (control keywords,
/// cast-like operators) or that are functional casts on fundamental types.
bool is_call_keyword(const std::string& name) {
  static const std::set<std::string> kKeywords = {
      "if",       "for",      "while",    "switch",   "catch",
      "return",   "sizeof",   "alignof",  "alignas",  "decltype",
      "noexcept", "typeid",   "requires", "static_assert", "new",
      "delete",   "throw",    "assert",   "defined",  "co_await",
      "co_yield", "co_return",
      // functional casts on fundamental types / ubiquitous aliases
      "int",      "char",     "bool",     "float",    "double",
      "long",     "short",    "unsigned", "signed",   "void",
      "auto",     "size_t",   "int8_t",   "int16_t",  "int32_t",
      "int64_t",  "uint8_t",  "uint16_t", "uint32_t", "uint64_t",
      "ptrdiff_t"};
  return kKeywords.count(name) != 0;
}

/// Member-call names that collide with the standard container/stream
/// vocabulary. A lexical graph cannot tell `pending_.clear()` (a vector)
/// from `sink.clear()` (a class in the include closure), and the container
/// reading is overwhelmingly the right one, so member calls with these
/// names draw no edges — a documented precision choice, mirrored by the
/// hot-call-unresolved virtual-name test.
bool is_ambiguous_member_name(const std::string& name) {
  static const std::set<std::string> kStl = {
      "count",   "clear",       "size",     "empty",        "at",
      "find",    "begin",       "end",      "cbegin",       "cend",
      "insert",  "erase",       "push_back", "pop_back",    "emplace_back",
      "emplace", "reserve",     "resize",   "front",        "back",
      "data",    "swap",        "contains", "lower_bound",  "upper_bound",
      "assign",  "push",        "pop",      "top",          "get",
      "reset",   "release",     "value",    "has_value",    "flush",
      "str",     "c_str",       "substr",   "compare",      "append",
      "length",  "first",       "second",   "lock",         "unlock",
      "min",     "max"};
  return kStl.count(name) != 0;
}

/// Words that may directly precede a call expression; any other identifier
/// word before the name means a declaration (`void f(`) or a placement
/// construction (`new Foo(`), not a call.
bool keeps_call_after(const std::string& word) {
  static const std::set<std::string> kKeep = {"return",   "else",  "case",
                                              "goto",     "do",    "co_return",
                                              "co_yield", "co_await"};
  return kKeep.count(word) != 0;
}

std::vector<std::string> split_components(const std::string& qualified) {
  std::vector<std::string> parts;
  std::string current;
  for (std::size_t i = 0; i < qualified.size(); ++i) {
    if (qualified.compare(i, 2, "::") == 0) {
      parts.push_back(current);
      current.clear();
      ++i;
    } else {
      current.push_back(qualified[i]);
    }
  }
  parts.push_back(current);
  return parts;
}

/// Suffix compatibility on '::' components, either direction: a call written
/// `execute_arrival` matches the symbol `Impl::execute_arrival`, and a call
/// written `Impl::execute_arrival` matches a symbol indexed as plain
/// `execute_arrival` (in-class definition).
bool components_compatible(const std::vector<std::string>& a,
                           const std::vector<std::string>& b) {
  const std::vector<std::string>& shorter = a.size() <= b.size() ? a : b;
  const std::vector<std::string>& longer = a.size() <= b.size() ? b : a;
  const std::size_t offset = longer.size() - shorter.size();
  for (std::size_t i = 0; i < shorter.size(); ++i) {
    if (shorter[i] != longer[offset + i]) return false;
  }
  return true;
}

}  // namespace

std::vector<CallSite> extract_calls(const std::string& code,
                                    const std::vector<FunctionScope>& functions) {
  std::vector<CallSite> calls;
  for (std::size_t paren = 0; paren < code.size(); ++paren) {
    if (code[paren] != '(') continue;
    // Read the (possibly qualified) identifier before the paren, tolerating
    // whitespace (`if (` and friends fall to the keyword filter).
    std::size_t end = paren;
    while (end > 0 &&
           std::isspace(static_cast<unsigned char>(code[end - 1])) != 0) {
      --end;
    }
    std::size_t begin = end;
    while (begin > 0) {
      const char c = code[begin - 1];
      if (is_ident(c)) {
        --begin;
        continue;
      }
      if (c == ':' && begin > 1 && code[begin - 2] == ':') {
        begin -= 2;
        continue;
      }
      break;
    }
    if (begin == end) continue;
    std::string name = code.substr(begin, end - begin);
    while (name.compare(0, 2, "::") == 0) name = name.substr(2);
    if (name.empty() || name.front() == ':' || name.back() == ':') continue;
    const std::string last = name.rfind("::") == std::string::npos
                                 ? name
                                 : name.substr(name.rfind("::") + 2);
    if (is_call_keyword(last) || is_call_keyword(name)) continue;

    CallSite call;
    call.pos = begin;
    call.name = name;

    // Classify by what precedes the name.
    std::size_t before = begin;
    while (before > 0 &&
           std::isspace(static_cast<unsigned char>(code[before - 1])) != 0) {
      --before;
    }
    if (before >= 2 && code[before - 2] == '-' && code[before - 1] == '>') {
      call.member = true;
    } else if (before >= 1 && code[before - 1] == '.') {
      call.member = true;
    } else if (before >= 1 &&
               (code[before - 1] == '>' || code[before - 1] == '*' ||
                code[before - 1] == '&' || code[before - 1] == '~')) {
      // `std::vector<T> f(` / `Foo* f(` / `Foo& f(`: a declaration header,
      // not a call (a template-argument call `f<T>(` never reaches here —
      // its name read stops at '>').
      continue;
    } else if (before >= 1 && is_ident(code[before - 1])) {
      std::size_t word_begin = before;
      while (word_begin > 0 && is_ident(code[word_begin - 1])) --word_begin;
      if (!keeps_call_after(code.substr(word_begin, before - word_begin))) {
        continue;  // `void f(` declaration, `new Foo(` placement, ...
      }
    }

    // Enclosing outermost function body, if any.
    for (const FunctionScope& fn : functions) {
      if (fn.open < call.pos && call.pos < fn.close) {
        call.enclosing_body = fn.open;
        break;
      }
    }
    calls.push_back(std::move(call));
  }
  return calls;
}

namespace {

/// A symbol's coordinates in the merged per-file tables.
struct SymbolRef {
  std::size_t file = 0;
  std::size_t sym = 0;

  friend bool operator<(const SymbolRef& a, const SymbolRef& b) {
    if (a.file != b.file) return a.file < b.file;
    return a.sym < b.sym;
  }
  friend bool operator==(const SymbolRef& a, const SymbolRef& b) {
    return a.file == b.file && a.sym == b.sym;
  }
};

/// The merged project view the interprocedural checks consume.
struct Project {
  const std::vector<FileEntry>* entries = nullptr;
  /// closure[f]: entry indices visible from f (reflexive, include-transitive,
  /// sibling-augmented), sorted.
  std::vector<std::vector<std::size_t>> closure;
  /// Last-component name -> definitions, in (file, sym) order.
  std::map<std::string, std::vector<SymbolRef>> by_name;
  /// Union of every file's virtual-method names.
  std::set<std::string> virtual_methods;
  /// resolved[f][c]: targets of entries[f].calls[c], in (file, sym) order.
  std::vector<std::vector<std::vector<SymbolRef>>> resolved;
  std::size_t edges_resolved = 0;
  std::size_t edges_unresolved = 0;

  const Symbol& symbol(const SymbolRef& ref) const {
    return (*entries)[ref.file].symbols.symbols[ref.sym];
  }
};

/// True when `rel` (repo-relative) is how include path `inc` would be
/// written from some scan root: an exact match or a path suffix.
bool include_matches(const std::string& rel, const std::string& inc) {
  if (rel == inc) return true;
  if (rel.size() <= inc.size()) return false;
  return rel.compare(rel.size() - inc.size() - 1, 1, "/") == 0 &&
         rel.compare(rel.size() - inc.size(), inc.size(), inc) == 0;
}

std::vector<std::vector<std::size_t>> build_closures(
    const std::vector<FileEntry>& entries) {
  const std::size_t n = entries.size();

  // rel path -> entry index, and sibling pairs (extension swapped).
  std::map<std::string, std::size_t> by_rel;
  for (std::size_t i = 0; i < n; ++i) by_rel.emplace(entries[i].file.rel_path, i);
  const auto sibling_of = [&](std::size_t i) -> std::size_t {
    const std::string& rel = entries[i].file.rel_path;
    const std::size_t dot = rel.rfind('.');
    if (dot == std::string::npos) return std::string::npos;
    const std::string ext = rel.substr(dot);
    const std::string other =
        rel.substr(0, dot) + (ext == ".cpp" ? ".hpp" : ".cpp");
    const auto it = by_rel.find(other);
    return it == by_rel.end() ? std::string::npos : it->second;
  };

  // Direct include targets per entry, resolved by path suffix once.
  std::vector<std::vector<std::size_t>> direct(n);
  std::map<std::string, std::vector<std::size_t>> include_targets;
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::string& inc : entries[i].symbols.quoted_includes) {
      auto [it, fresh] = include_targets.try_emplace(inc);
      if (fresh) {
        for (std::size_t j = 0; j < n; ++j) {
          if (include_matches(entries[j].file.rel_path, inc)) it->second.push_back(j);
        }
      }
      for (const std::size_t j : it->second) direct[i].push_back(j);
    }
  }

  std::vector<std::vector<std::size_t>> closure(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::set<std::size_t> seen{i};
    std::vector<std::size_t> queue{i};
    while (!queue.empty()) {
      const std::size_t f = queue.back();
      queue.pop_back();
      const std::size_t sib = sibling_of(f);
      if (sib != std::string::npos && seen.insert(sib).second) queue.push_back(sib);
      for (const std::size_t g : direct[f]) {
        if (seen.insert(g).second) queue.push_back(g);
      }
    }
    closure[i].assign(seen.begin(), seen.end());
  }
  return closure;
}

Project build_project(const std::vector<FileEntry>& entries) {
  Project project;
  project.entries = &entries;
  project.closure = build_closures(entries);

  for (std::size_t f = 0; f < entries.size(); ++f) {
    const std::vector<Symbol>& symbols = entries[f].symbols.symbols;
    for (std::size_t s = 0; s < symbols.size(); ++s) {
      project.by_name[symbols[s].name].push_back({f, s});
    }
    for (const std::string& name : entries[f].symbols.virtual_methods) {
      project.virtual_methods.insert(name);
    }
  }

  project.resolved.resize(entries.size());
  for (std::size_t f = 0; f < entries.size(); ++f) {
    const std::vector<std::size_t>& visible = project.closure[f];
    project.resolved[f].resize(entries[f].calls.size());
    for (std::size_t c = 0; c < entries[f].calls.size(); ++c) {
      const CallSite& call = entries[f].calls[c];
      const std::vector<std::string> parts = split_components(call.name);
      if (parts.front() == "std") continue;  // external, never an edge
      if (call.member && is_ambiguous_member_name(parts.back())) continue;
      const auto it = project.by_name.find(parts.back());
      if (it != project.by_name.end()) {
        for (const SymbolRef& ref : it->second) {
          if (!std::binary_search(visible.begin(), visible.end(), ref.file)) {
            continue;
          }
          if (parts.size() > 1 &&
              !components_compatible(
                  parts, split_components(project.symbol(ref).qualified))) {
            continue;
          }
          project.resolved[f][c].push_back(ref);
        }
      }
      if (project.resolved[f][c].empty()) {
        ++project.edges_unresolved;
      } else {
        project.edges_resolved += project.resolved[f][c].size();
      }
    }
  }
  return project;
}

// ---------------------------------------------------------------------------
// The two interprocedural checks
// ---------------------------------------------------------------------------

/// The hot-path ban list, applied to hot roots and every callee the walk
/// reaches. Virtual sink calls are hot-call-unresolved's concern.
struct BanToken {
  const char* token;
  const char* what;
};

constexpr BanToken kBanTokens[] = {
    {"throw", "throw"},
    {"new", "allocation (new)"},
    {"make_unique", "allocation (make_unique)"},
    {"make_shared", "allocation (make_shared)"},
    {"malloc", "allocation (malloc)"},
    {"calloc", "allocation (calloc)"},
    {"realloc", "allocation (realloc)"},
    {"dynamic_cast", "dynamic_cast"},
    {"scoped_lock", "lock acquisition (scoped_lock)"},
    {"lock_guard", "lock acquisition (lock_guard)"},
    {"unique_lock", "lock acquisition (unique_lock)"},
    {"shared_lock", "lock acquisition (shared_lock)"},
};

/// Shared walk state: which symbols the hot walk has entered, and through
/// which chain. Chains are first-visit-wins; the walk order (roots in file
/// order, calls in position order, targets in (file, sym) order) pins them.
struct HotWalk {
  std::set<SymbolRef> visited;
  /// Symbols whose bodies count as hot context for hot-call-unresolved:
  /// the roots plus every callee the walk descended into.
  std::vector<std::pair<SymbolRef, std::string>> hot_context;  // ref, chain
};

/// Reports every banned token in one body: a hot root (`chain` empty) or a
/// callee reached through `chain`.
void scan_hot_body(std::vector<FileEntry>& entries, const Project& project,
                   const SymbolRef& ref, const std::string& chain) {
  FileEntry& entry = entries[ref.file];
  const Symbol& symbol = project.symbol(ref);
  const bool root = chain.empty();
  const std::string where =
      root ? "gridbw:hot body '" + symbol.qualified + "'"
           : "'" + symbol.qualified + "', reached from a gridbw:hot body via " +
                 chain;
  for (const BanToken& t : kBanTokens) {
    for (const std::size_t hit : find_all(entry.file.code, t.token, true,
                                          symbol.body_open, symbol.body_close)) {
      report(entry, hit, "hot-propagation",
             std::string{t.what} + " in " + where +
                 (root ? " — hoist it out of the hot path or justify with "
                         "GRIDBW-ALLOW(hot-propagation)"
                       : " — hoist it, mark the callee // gridbw:hot, or "
                         "justify with GRIDBW-ALLOW(hot-propagation)"));
    }
  }
}

void walk_hot(std::vector<FileEntry>& entries, const Project& project,
              HotWalk& walk, const SymbolRef& ref, const std::string& chain) {
  const FileEntry& entry = entries[ref.file];
  const Symbol& symbol = project.symbol(ref);
  walk.hot_context.emplace_back(ref, chain);
  for (std::size_t c = 0; c < entry.calls.size(); ++c) {
    if (entry.calls[c].enclosing_body != symbol.body_open) continue;
    for (const SymbolRef& target : project.resolved[ref.file][c]) {
      if (!walk.visited.insert(target).second) continue;
      const Symbol& callee = project.symbol(target);
      if (callee.hot || callee.hot_allow) continue;  // its own wall applies
      const std::string next = chain + " -> " + callee.qualified;
      scan_hot_body(entries, project, target, next);
      walk_hot(entries, project, walk, target, next);
    }
  }
}

void check_hot_call_unresolved(std::vector<FileEntry>& entries,
                               const Project& project, const HotWalk& walk) {
  // Each hot-context symbol appears once and each call site belongs to one
  // enclosing body, so every (body, call) pair is examined exactly once.
  for (const auto& [ref, chain] : walk.hot_context) {
    FileEntry& entry = entries[ref.file];
    const Symbol& symbol = project.symbol(ref);
    for (const CallSite& call : entry.calls) {
      if (call.enclosing_body != symbol.body_open) continue;
      const std::vector<std::string> parts = split_components(call.name);
      if (parts.front() == "std") continue;
      const std::string& last = parts.back();
      if (std::binary_search(entry.symbols.callable_names.begin(),
                             entry.symbols.callable_names.end(), last)) {
        report(entry, call.pos, "hot-call-unresolved",
               "call through std::function '" + last + "' in hot context (" +
                   chain +
                   ") — the graph cannot see the bound callable; verify "
                   "it is hot-clean and justify with "
                   "GRIDBW-ALLOW(hot-call-unresolved)");
        continue;
      }
      if (call.member && !is_ambiguous_member_name(last) &&
          project.virtual_methods.count(last) != 0) {
        report(entry, call.pos, "hot-call-unresolved",
               "virtual call '" + last + "' in hot context (" + chain +
                   ") — dispatch target is unresolvable; devirtualize, "
                   "hoist it out, or justify with "
                   "GRIDBW-ALLOW(hot-call-unresolved)");
      }
    }
  }
}

}  // namespace

void run_interprocedural_checks(std::vector<FileEntry>& entries,
                                TreeReport& report) {
  const Project project = build_project(entries);
  report.call_edges_resolved = project.edges_resolved;
  report.call_edges_unresolved = project.edges_unresolved;

  HotWalk walk;
  for (std::size_t f = 0; f < entries.size(); ++f) {
    const std::vector<Symbol>& symbols = entries[f].symbols.symbols;
    for (std::size_t s = 0; s < symbols.size(); ++s) {
      if (!symbols[s].hot) continue;
      const SymbolRef root{f, s};
      ++report.hot_roots;
      walk.visited.insert(root);
      scan_hot_body(entries, project, root, "");
      walk_hot(entries, project, walk, root, symbols[s].qualified);
    }
  }
  check_hot_call_unresolved(entries, project, walk);
}

}  // namespace gridbw::analyze
