// Scope model: a brace/paren-tracking pass over stripped source. Matches
// every brace pair, classifies the scope it opens (function body, control
// statement, plain block), extracts RAII lock acquisitions with their hold
// intervals, and parses gridbw:guarded_by annotations. Still lexical — the
// same heuristic spirit as the rest of the catalogue, no libclang.

#include "scan.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <string>
#include <vector>

namespace gridbw::analyze {

std::size_t header_param_open(const std::string& code, std::size_t open) {
  // Skip what a function-header tail is made of (identifiers, whitespace,
  // template angles, qualifiers, trailing return, ctor-init-list commas),
  // then match the ')' back to its '('.
  std::size_t i = open;
  while (i > 0) {
    const char c = code[i - 1];
    const bool skip = is_ident(c) || c == ' ' || c == '\t' || c == '\n' ||
                      c == ':' || c == '<' || c == '>' || c == ',' ||
                      c == '*' || c == '&' || c == '-';
    if (!skip) break;
    --i;
  }
  if (i == 0 || code[i - 1] != ')') return std::string::npos;
  int depth = 0;
  for (std::size_t j = i - 1;; --j) {
    if (code[j] == ')') ++depth;
    if (code[j] == '(' && --depth == 0) return j;
    if (j == 0) return std::string::npos;
  }
}

namespace {

enum class ScopeKind { kFunction, kControl, kPlain };

/// Classifies the scope opened by the '{' at `open` from its header: no
/// parameter list gives a plain scope (class/namespace body, initializer
/// list, ...); otherwise the word before the '(' decides — a control keyword
/// gives a control scope, a lambda capture ']' a transparent plain scope,
/// anything else a function body.
ScopeKind classify_scope(const std::string& code, std::size_t open) {
  const std::size_t j = header_param_open(code, open);
  if (j == std::string::npos) return ScopeKind::kPlain;
  std::size_t k = j;
  while (k > 0 && std::isspace(static_cast<unsigned char>(code[k - 1])) != 0) {
    --k;
  }
  if (k == 0) return ScopeKind::kPlain;
  if (code[k - 1] == ']') return ScopeKind::kPlain;  // lambda: transparent
  std::size_t b = k;
  while (b > 0 && is_ident(code[b - 1])) --b;
  const std::string word = code.substr(b, k - b);
  if (word == "if" || word == "for" || word == "while" || word == "switch" ||
      word == "catch" || word == "constexpr") {  // `if constexpr (...)`
    return ScopeKind::kControl;
  }
  if (word.empty()) return ScopeKind::kPlain;
  return ScopeKind::kFunction;
}

struct BracePair {
  std::size_t open = 0;
  std::size_t close = 0;
  ScopeKind kind = ScopeKind::kPlain;
  bool outermost_function = false;
};

std::vector<BracePair> match_braces(const std::string& code) {
  struct OpenScope {
    std::size_t open;
    ScopeKind kind;
    int function_depth_below;
  };
  std::vector<BracePair> pairs;
  std::vector<OpenScope> stack;
  int function_depth = 0;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '{') {
      const ScopeKind kind = classify_scope(code, i);
      stack.push_back({i, kind, function_depth});
      if (kind == ScopeKind::kFunction) ++function_depth;
    } else if (c == '}') {
      if (stack.empty()) continue;  // unbalanced — tolerate, macros exist
      const OpenScope top = stack.back();
      stack.pop_back();
      if (top.kind == ScopeKind::kFunction) --function_depth;
      pairs.push_back({top.open, i, top.kind,
                       top.kind == ScopeKind::kFunction &&
                           top.function_depth_below == 0});
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const BracePair& a, const BracePair& b) { return a.open < b.open; });
  return pairs;
}

/// The closing brace of the innermost scope containing `pos` (code end when
/// the position is at file scope).
std::size_t enclosing_scope_end(const std::vector<BracePair>& pairs,
                                std::size_t pos, std::size_t code_size) {
  std::size_t end = code_size;
  for (const BracePair& p : pairs) {
    if (p.open < pos && pos < p.close) end = std::min(end, p.close);
  }
  return end;
}

void collect_lock_sites(const std::string& code,
                        const std::vector<BracePair>& pairs,
                        std::vector<LockSite>* out) {
  for (const std::string token : {"scoped_lock", "lock_guard", "unique_lock",
                                  "shared_lock"}) {
    for (const std::size_t hit : find_all(code, token, true)) {
      std::size_t i = skip_ws(code, hit + token.size());
      if (i < code.size() && code[i] == '<') {  // template argument list
        i = std::min(close_of(code, i, '<', '>') + 1, code.size());
      }
      i = skip_ws(code, i);
      std::size_t name_end = i;
      while (name_end < code.size() && is_ident(code[name_end])) ++name_end;
      if (name_end == i) continue;  // a type mention, not a declaration
      LockSite site;
      site.pos = hit;
      site.var = code.substr(i, name_end - i);
      i = skip_ws(code, name_end);
      if (i >= code.size() || (code[i] != '(' && code[i] != '{')) continue;

      // Constructor arguments, split on top-level commas.
      std::vector<std::string> args;
      std::string current;
      int depth = 0;
      bool closed = false;
      std::size_t j = i;
      for (; j < code.size(); ++j) {
        const char c = code[j];
        if (c == '(' || c == '{' || c == '[') {
          ++depth;
          if (depth == 1) continue;  // the opener itself
        } else if (c == ')' || c == '}' || c == ']') {
          --depth;
          if (depth == 0) {
            closed = true;
            break;
          }
        } else if (c == ',' && depth == 1) {
          args.push_back(strip_spaces(current));
          current.clear();
          continue;
        }
        current.push_back(c);
      }
      if (!closed) continue;
      if (!strip_spaces(current).empty()) args.push_back(strip_spaces(current));

      bool deferred = false;
      for (const std::string& arg : args) {
        if (arg.find("defer_lock") != std::string::npos) deferred = true;
        if (arg.find("adopt_lock") != std::string::npos) continue;
        if (arg.find("try_to_lock") != std::string::npos) continue;
        if (!arg.empty()) site.mutexes.push_back(arg);
      }
      // A deferred lock is acquired later (std::lock / .lock()); tracking
      // where would need dataflow, so the site is conservatively skipped.
      if (deferred || site.mutexes.empty()) continue;

      site.release = enclosing_scope_end(pairs, hit, code.size());
      // An explicit var.unlock() ends the hold early.
      for (const std::size_t var_hit :
           find_all(code, site.var, true, j, site.release)) {
        const std::size_t after = skip_ws(code, var_hit + site.var.size());
        if (code.compare(after, 7, ".unlock") == 0) {
          site.release = var_hit;
          break;
        }
      }
      out->push_back(site);
    }
  }
  std::sort(out->begin(), out->end(),
            [](const LockSite& a, const LockSite& b) { return a.pos < b.pos; });
}

/// Fields annotated `// gridbw:guarded_by(mu)` in one line set: the
/// annotation trails the field declaration on its own line. `companion`
/// marks the sibling header, whose declaration lines are not in this file.
void collect_guarded(const std::vector<std::string>& raw_lines,
                     const std::vector<std::string>& code_lines, bool companion,
                     std::vector<GuardedField>* out) {
  static const std::string kGuard = "gridbw:guarded_by(";
  for (std::size_t i = 0; i < raw_lines.size(); ++i) {
    const std::string& raw = raw_lines[i];
    const std::size_t g = raw.find(kGuard);
    if (g == std::string::npos) continue;
    const std::size_t slashes = raw.find("//");
    const std::size_t close = raw.find(')', g);
    if (slashes == std::string::npos || slashes > g ||
        close == std::string::npos) {
      continue;
    }
    const std::string mutex =
        strip_spaces(raw.substr(g + kGuard.size(), close - g - kGuard.size()));
    if (mutex.empty()) continue;
    // Field name: the last identifier before the declarator's terminator
    // (';', '=', or a brace initializer) in the stripped code line.
    const std::string& decl = code_lines[i];
    std::size_t end = decl.find_first_of(";={");
    if (end == std::string::npos) end = decl.size();
    while (end > 0 && !is_ident(decl[end - 1])) --end;
    std::size_t begin = end;
    while (begin > 0 && is_ident(decl[begin - 1])) --begin;
    if (end == begin) continue;
    out->push_back({decl.substr(begin, end - begin), mutex,
                    companion ? 0 : static_cast<int>(i) + 1});
  }
}

void collect_cv_names(const std::string& code, std::vector<std::string>* out) {
  static const std::string kToken = "condition_variable";
  for (const std::size_t hit : find_all(code, kToken, false)) {
    if (hit > 0 && is_ident(code[hit - 1])) continue;
    std::size_t i = hit + kToken.size();
    if (code.compare(i, 4, "_any") == 0) i += 4;
    if (i < code.size() && is_ident(code[i])) continue;  // other identifier
    i = skip_ws(code, i);
    std::size_t end = i;
    while (end < code.size() && is_ident(code[end])) ++end;
    if (end > i) out->push_back(code.substr(i, end - i));
  }
}

}  // namespace

bool mutex_matches(const std::string& held, const std::string& name) {
  if (held == name) return true;
  if (held.size() <= name.size()) return false;
  if (held.compare(held.size() - name.size(), name.size(), name) != 0) {
    return false;
  }
  const char before = held[held.size() - name.size() - 1];
  return before == '.' || before == '>';  // member access: `.name` / `->name`
}

ScopeInfo build_scope_info(const SourceFile& file) {
  ScopeInfo info;
  const std::vector<BracePair> pairs = match_braces(file.code);
  for (const BracePair& pair : pairs) {
    if (pair.outermost_function) {
      info.functions.push_back({pair.open, pair.close});
    }
  }
  collect_lock_sites(file.code, pairs, &info.locks);
  collect_guarded(file.raw_lines, file.code_lines, /*companion=*/false,
                  &info.guarded);
  collect_guarded(file.companion_raw_lines, file.companion_code_lines,
                  /*companion=*/true, &info.guarded);
  collect_cv_names(file.code, &info.cv_names);
  collect_cv_names(file.companion_code, &info.cv_names);
  std::sort(info.cv_names.begin(), info.cv_names.end());
  info.cv_names.erase(std::unique(info.cv_names.begin(), info.cv_names.end()),
                      info.cv_names.end());
  return info;
}

}  // namespace gridbw::analyze
