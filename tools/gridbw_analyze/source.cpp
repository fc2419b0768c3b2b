#include "scan.hpp"

#include <algorithm>
#include <cstddef>
#include <set>

namespace gridbw::analyze {

std::string strip_comments_and_strings(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  const std::size_t n = text.size();
  std::size_t i = 0;
  while (i < n) {
    const char c = text[i];
    const char next = i + 1 < n ? text[i + 1] : '\0';
    if (c == '/' && next == '/') {
      while (i < n && text[i] != '\n') {
        out.push_back(' ');
        ++i;
      }
    } else if (c == '/' && next == '*') {
      out.append("  ");
      i += 2;
      while (i < n && !(text[i] == '*' && i + 1 < n && text[i + 1] == '/')) {
        out.push_back(text[i] == '\n' ? '\n' : ' ');
        ++i;
      }
      if (i < n) {  // closing "*/"
        out.append("  ");
        i += 2;
      }
    } else if (c == '"' || c == '\'') {
      const char quote = c;
      out.push_back(quote);
      ++i;
      while (i < n && text[i] != quote && text[i] != '\n') {
        if (text[i] == '\\' && i + 1 < n && text[i + 1] != '\n') {
          out.append("  ");
          i += 2;
        } else {
          out.push_back(' ');
          ++i;
        }
      }
      if (i < n && text[i] == quote) {
        out.push_back(quote);
        ++i;
      }
    } else {
      out.push_back(c);
      ++i;
    }
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (true) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

SourceFile make_source(std::string rel_path, const std::string& text) {
  SourceFile file;
  file.rel_path = std::move(rel_path);
  file.raw_lines = split_lines(text);
  file.code = strip_comments_and_strings(text);
  file.code_lines = split_lines(file.code);
  file.starts.push_back(0);
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    if (file.code[i] == '\n') file.starts.push_back(i + 1);
  }
  return file;
}

namespace {

/// The ids named by `GRIDBW-ALLOW(<id>)` markers on one raw line.
std::vector<std::string> allow_ids(const std::string& line) {
  static const std::string kMarker = "GRIDBW-ALLOW(";
  std::vector<std::string> ids;
  std::size_t pos = 0;
  while ((pos = line.find(kMarker, pos)) != std::string::npos) {
    const std::size_t open = pos + kMarker.size();
    const std::size_t close = line.find(')', open);
    if (close == std::string::npos) break;
    ids.push_back(line.substr(open, close - open));
    pos = close;
  }
  return ids;
}

bool line_allows(const std::string& line, const std::string& check) {
  const std::vector<std::string> ids = allow_ids(line);
  return std::find(ids.begin(), ids.end(), check) != ids.end();
}

}  // namespace

bool SourceFile::suppressed(int line, const std::string& check) const {
  if (line < 1 || static_cast<std::size_t>(line) > raw_lines.size()) return false;
  const std::size_t idx = static_cast<std::size_t>(line) - 1;
  if (line_allows(raw_lines[idx], check)) return true;
  return idx > 0 && line_allows(raw_lines[idx - 1], check);
}

std::vector<std::string> stale_allows_in(const SourceFile& file) {
  std::set<std::string> known;
  for (const CheckInfo& info : check_catalogue()) known.insert(info.id);

  std::vector<std::string> stale;
  for (std::size_t i = 0; i < file.raw_lines.size(); ++i) {
    for (const std::string& id : allow_ids(file.raw_lines[i])) {
      // An "id" with characters outside [a-z0-9-] is prose about the
      // mechanism (docs write GRIDBW-ALLOW(<check>)), not a suppression.
      const bool id_like =
          !id.empty() && std::all_of(id.begin(), id.end(), [](char c) {
            return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-';
          });
      if (id_like && known.count(id) == 0) {
        stale.push_back(file.rel_path + ":" + std::to_string(i + 1) + ": " + id);
      }
    }
  }
  return stale;
}

}  // namespace gridbw::analyze
