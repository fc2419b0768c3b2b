// Project-wide symbol index, the per-file half: names every outermost
// function body the scope parser found (the qualified identifier written
// before the parameter list) and binds `// gridbw:hot` annotations and
// symbol-level ALLOWs to it — from the definition file, and from the sibling
// header by declared name (a `// gridbw:hot` above a declaration in x.hpp
// marks the definition in x.cpp). `operator` overloads, `noexcept(...)`
// tails and similar unnameable headers are skipped rather than guessed at.

#include "scan.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <string>
#include <vector>

namespace gridbw::analyze {

namespace {

/// The qualified identifier directly before `paren`: identifier characters,
/// '~', and '::' separators ("AdmissionService::execute_arrival"). Empty for
/// operator overloads and other unnameable shapes.
std::string qualified_before(const std::string& code, std::size_t paren) {
  std::size_t end = paren;
  while (end > 0 &&
         std::isspace(static_cast<unsigned char>(code[end - 1])) != 0) {
    --end;
  }
  std::size_t begin = end;
  while (begin > 0) {
    const char c = code[begin - 1];
    if (is_ident(c) || c == '~') {
      --begin;
      continue;
    }
    if (c == ':' && begin > 1 && code[begin - 2] == ':') {
      begin -= 2;
      continue;
    }
    break;
  }
  // A leading "::" (global qualification) carries no name information.
  std::string name = code.substr(begin, end - begin);
  while (name.compare(0, 2, "::") == 0) name = name.substr(2);
  return name;
}

std::string last_component(const std::string& qualified) {
  const std::size_t sep = qualified.rfind("::");
  return sep == std::string::npos ? qualified : qualified.substr(sep + 2);
}

/// Headers that the scope parser classified as functions but that carry no
/// usable name: noexcept(...) tails, operator overloads, keywords.
bool unnameable(const std::string& qualified) {
  if (qualified.empty()) return true;
  if (qualified.find("operator") != std::string::npos) return true;
  const std::string last = last_component(qualified);
  return last.empty() || last == "noexcept" || last == "decltype" ||
         last == "requires" || last == "alignas";
}

/// The first '{' at or after the line following `annotation_line` (0-based),
/// i.e. the body the standalone-comment annotation binds to.
std::size_t body_after_line(const SourceFile& file, std::size_t annotation_line) {
  const std::size_t from = annotation_line + 1 < file.starts.size()
                               ? file.starts[annotation_line + 1]
                               : file.code.size();
  return file.code.find('{', from);
}

/// The name declared by the first '('-terminated identifier in the lines
/// following `from` — how sibling-header annotations bind: the annotation is
/// a standalone comment line, the declaration follows, and the declared
/// function's name is the identifier before its parameter list.
std::string declared_name_after(const std::vector<std::string>& code_lines,
                                std::size_t from) {
  for (std::size_t i = from; i < code_lines.size() && i < from + 4; ++i) {
    const std::string& line = code_lines[i];
    const std::size_t paren = line.find('(');
    if (paren == std::string::npos) continue;
    std::size_t end = paren;
    while (end > 0 &&
           std::isspace(static_cast<unsigned char>(line[end - 1])) != 0) {
      --end;
    }
    std::size_t begin = end;
    while (begin > 0 && is_ident(line[begin - 1])) --begin;
    if (end > begin) return line.substr(begin, end - begin);
    return "";
  }
  return "";
}

Symbol* symbol_with_body(std::vector<Symbol>& symbols, std::size_t open) {
  for (Symbol& s : symbols) {
    if (s.body_open == open) return &s;
  }
  return nullptr;
}

/// Names declared with std::function type: `std::function<...>[&*] name`.
void collect_callable_names(const std::string& code,
                            std::vector<std::string>* out) {
  static const std::string kToken = "std::function";
  for (const std::size_t hit : find_all(code, kToken, false)) {
    std::size_t i = skip_ws(code, hit + kToken.size());
    if (i >= code.size() || code[i] != '<') continue;
    i = skip_ws(code, std::min(close_of(code, i, '<', '>') + 1, code.size()));
    while (i < code.size() && (code[i] == '&' || code[i] == '*')) {
      i = skip_ws(code, i + 1);
    }
    std::size_t end = i;
    while (end < code.size() && is_ident(code[end])) ++end;
    if (end > i) out->push_back(code.substr(i, end - i));
  }
}

/// Method names declared `virtual` (destructors excluded): the identifier
/// before the next '(' after the keyword, on the same declaration.
void collect_virtual_methods(const std::string& code,
                             std::vector<std::string>* out) {
  static const std::string kToken = "virtual";
  for (const std::size_t hit : find_all(code, kToken, true)) {
    const std::size_t pos = hit + kToken.size();
    const std::size_t paren = code.find('(', pos);
    if (paren == std::string::npos || paren > pos + 200) continue;
    std::size_t end = paren;
    while (end > 0 &&
           std::isspace(static_cast<unsigned char>(code[end - 1])) != 0) {
      --end;
    }
    std::size_t begin = end;
    while (begin > 0 && is_ident(code[begin - 1])) --begin;
    if (end == begin) continue;
    if (begin > 0 && code[begin - 1] == '~') continue;  // destructor
    out->push_back(code.substr(begin, end - begin));
  }
}

void sort_unique(std::vector<std::string>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace

FileSymbols extract_symbols(const SourceFile& file,
                            const std::vector<FunctionScope>& functions) {
  const std::string& code = file.code;
  FileSymbols table;

  for (const FunctionScope& fn : functions) {
    const std::size_t paren = header_param_open(code, fn.open);
    if (paren == std::string::npos) continue;
    const std::string qualified = qualified_before(code, paren);
    if (unnameable(qualified)) continue;
    Symbol symbol;
    symbol.qualified = qualified;
    symbol.name = last_component(qualified);
    symbol.body_open = fn.open;
    symbol.body_close = fn.close;
    symbol.line = line_of(file.starts, fn.open);
    symbol.hot_allow = file.suppressed(symbol.line, "hot-propagation");
    table.symbols.push_back(std::move(symbol));
  }
  std::sort(table.symbols.begin(), table.symbols.end(),
            [](const Symbol& a, const Symbol& b) {
              return a.body_open < b.body_open;
            });

  // Definition-file annotations bind by body position (the first '{' after
  // the standalone comment line).
  static const std::string kHot = "// gridbw:hot";
  for (std::size_t i = 0; i < file.raw_lines.size(); ++i) {
    if (trim(file.raw_lines[i]) != kHot) continue;
    Symbol* s = symbol_with_body(table.symbols, body_after_line(file, i));
    if (s != nullptr) s->hot = true;
  }

  // Sibling-header annotations bind by declared name: a `// gridbw:hot`
  // above a declaration in x.hpp marks every same-named definition in x.cpp
  // (overloads share the marking — the conservative direction).
  for (std::size_t i = 0; i < file.companion_raw_lines.size(); ++i) {
    if (trim(file.companion_raw_lines[i]) != kHot) continue;
    const std::string name = declared_name_after(file.companion_code_lines, i + 1);
    for (Symbol& symbol : table.symbols) {
      if (!name.empty() && symbol.name == name) symbol.hot = true;
    }
  }

  for (std::size_t i = 0; i < file.code_lines.size(); ++i) {
    const std::string include = quoted_include(file, i);
    if (!include.empty()) table.quoted_includes.push_back(include);
  }
  collect_callable_names(code, &table.callable_names);
  collect_callable_names(file.companion_code, &table.callable_names);
  collect_virtual_methods(code, &table.virtual_methods);
  collect_virtual_methods(file.companion_code, &table.virtual_methods);
  sort_unique(&table.quoted_includes);
  sort_unique(&table.callable_names);
  sort_unique(&table.virtual_methods);
  return table;
}

}  // namespace gridbw::analyze
