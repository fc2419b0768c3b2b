// Scope model: a brace/paren-tracking pass over stripped source. Matches
// every brace pair and keeps the outermost function bodies (a lambda body
// is transparent: it belongs to its enclosing function).
// Still lexical — the same heuristic spirit as the rest of the catalogue,
// no libclang.

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

/// True when the '{' at `open` opens a function body, judged from its
/// header: no parameter list means a class/namespace body, initializer list
/// or plain block; otherwise the word before the '(' decides — a control
/// keyword opens a control block, a lambda capture ']' a transparent scope,
/// anything else a function body.
bool opens_function(const std::string& code, std::size_t open) {
  const std::size_t j = header_param_open(code, open);
  if (j == std::string::npos) return false;
  std::size_t k = j;
  while (k > 0 && std::isspace(static_cast<unsigned char>(code[k - 1])) != 0) {
    --k;
  }
  if (k == 0 || code[k - 1] == ']') return false;  // lambda: transparent
  std::size_t b = k;
  while (b > 0 && is_ident(code[b - 1])) --b;
  const std::string word = code.substr(b, k - b);
  return !word.empty() && word != "if" && word != "for" && word != "while" &&
         word != "switch" && word != "catch" &&
         word != "constexpr";  // `if constexpr (...)`
}

}  // namespace

std::vector<FunctionScope> outermost_functions(const SourceFile& file) {
  const std::string& code = file.code;
  struct OpenScope {
    std::size_t open;
    bool function;
  };
  std::vector<FunctionScope> functions;
  std::vector<OpenScope> stack;
  int function_depth = 0;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i] == '{') {
      const bool function = opens_function(code, i);
      stack.push_back({i, function});
      function_depth += function ? 1 : 0;
    } else if (code[i] == '}') {
      if (stack.empty()) continue;  // unbalanced — tolerate, macros exist
      const OpenScope top = stack.back();
      stack.pop_back();
      if (top.function && --function_depth == 0) {
        functions.push_back({top.open, i});
      }
    }
  }
  std::sort(functions.begin(), functions.end(),
            [](const FunctionScope& a, const FunctionScope& b) { return a.open < b.open; });
  return functions;
}

}  // namespace gridbw::analyze
