#include "analyze.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "callgraph.hpp"
#include "symbols.hpp"
#include "util/thread_pool.hpp"

namespace gridbw::analyze {

namespace {

std::string trim(const std::string& s) {
  const std::size_t first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const std::size_t last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"gridbw-analyze: cannot read " + path.string()};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::string baseline_key(const Finding& finding, const SourceFile& file) {
  std::string line_text;
  if (finding.line >= 1 &&
      static_cast<std::size_t>(finding.line) <= file.raw_lines.size()) {
    line_text = trim(file.raw_lines[static_cast<std::size_t>(finding.line) - 1]);
  }
  return finding.check + "|" + finding.path + "|" + line_text;
}

Baseline parse_baseline(const std::string& text) {
  Baseline baseline;
  for (const std::string& raw : split_lines(text)) {
    const std::string line = trim(raw);
    if (line.empty() || line[0] == '#') continue;
    ++baseline[line];
  }
  return baseline;
}

BaselineSplit apply_baseline(const std::vector<Finding>& findings,
                             const std::vector<std::string>& keys,
                             const Baseline& baseline) {
  BaselineSplit split;
  Baseline remaining = baseline;
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const auto it = remaining.find(keys[i]);
    if (it != remaining.end() && it->second > 0) {
      --it->second;
      split.baselined.push_back(findings[i]);
    } else {
      split.fresh.push_back(findings[i]);
    }
  }
  for (const auto& [key, count] : remaining) {
    for (int i = 0; i < count; ++i) split.stale.push_back(key);
  }
  return split;
}

std::string render_baseline(const std::vector<std::string>& keys) {
  std::vector<std::string> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  std::string out =
      "# gridbw-analyze baseline: tolerated pre-existing findings.\n"
      "# Format: check|path|trimmed source line. Regenerate with\n"
      "#   gridbw_analyze --root . --baseline <this file> --fix-baseline\n"
      "# Policy: this file should shrink to empty; new code never adds to it.\n";
  for (const std::string& key : sorted) {
    out += key;
    out.push_back('\n');
  }
  return out;
}

std::string render_json(const std::vector<Finding>& findings) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += "  {\"path\": \"" + json_escape(f.path) + "\", \"line\": " +
           std::to_string(f.line) + ", \"check\": \"" + json_escape(f.check) +
           "\", \"message\": \"" + json_escape(f.message) + "\"}";
    if (i + 1 < findings.size()) out.push_back(',');
    out.push_back('\n');
  }
  out += "]\n";
  return out;
}

const std::vector<ScanRoot>& scan_roots() {
  static const std::vector<ScanRoot> kRoots = {
      {"src", {}},
      // tools: host-side utilities — library layering and the unit-typed
      // header vocabulary do not apply outside the library tree.
      {"tools", {"layering", "unit-safety"}},
      // bench: measures the machine and prints human-facing tables.
      {"bench", {"layering", "wall-clock", "float-format", "unit-safety"}},
      // tests: exercise forbidden constructs on purpose (raw atomics in TSan
      // stress tests).
      {"tests", {"layering", "float-format", "unit-safety", "atomic-discipline"}},
  };
  return kRoots;
}

namespace {

std::string join_code(const std::vector<std::string>& lines) {
  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i != 0) out.push_back('\n');
    out += lines[i];
  }
  return out;
}

std::vector<std::size_t> line_starts_of(const std::string& text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

/// Runs `fn(i)` for every index, serially or over the pool.
template <typename Fn>
void for_each_index(std::size_t count, std::size_t threads, Fn&& fn) {
  if (threads == 1 || count < 2) {
    gridbw::serial_for_index(count, fn);
  } else {
    gridbw::ThreadPool pool{threads};
    gridbw::parallel_for_index(pool, count, fn);
  }
}

}  // namespace

TreeReport analyze_loaded(const std::vector<LoadedFile>& files,
                          const Options& options) {
  // Effective per-root check set: (user selection or the full catalogue)
  // minus the root's skip profile. An empty result means "scan nothing
  // here" — it must not fall through to Options' empty-means-all default.
  std::vector<Options> per_root;
  for (const ScanRoot& scan_root : scan_roots()) {
    Options effective;
    effective.threads = options.threads;
    if (options.checks.empty()) {
      for (const CheckInfo& check : check_catalogue()) {
        if (scan_root.skip.count(check.id) == 0) {
          effective.checks.insert(check.id);
        }
      }
    } else {
      for (const std::string& id : options.checks) {
        if (scan_root.skip.count(id) == 0) effective.checks.insert(id);
      }
    }
    per_root.push_back(std::move(effective));
  }

  // Phase 1 (parallel): per-file tables — stripped code, scope model,
  // symbol index, call sites. Entries stay in `files` order, so the serial
  // merge below sees the same sequence regardless of thread count.
  std::vector<FileEntry> entries(files.size());
  for_each_index(files.size(), options.threads, [&](std::size_t i) {
    const LoadedFile& loaded = files[i];
    FileEntry& entry = entries[i];
    entry.rel = loaded.rel;
    entry.root_rel = loaded.root_rel;
    entry.root_index = loaded.root_index;
    entry.file = make_source(loaded.rel, loaded.text);
    if (loaded.has_companion) attach_companion(entry.file, loaded.companion);
    entry.code = join_code(entry.file.code_lines);
    entry.starts = line_starts_of(entry.code);
    entry.scope = build_scope_info(entry.file, entry.code, entry.starts);
    entry.symbols =
        extract_symbols(entry.file, entry.code, entry.starts, entry.scope);
    entry.calls = extract_calls(entry.code, entry.scope);
  });

  // Interprocedural passes: serial over the merged tables (deterministic by
  // construction — entries, calls, and symbol refs all iterate in order).
  std::vector<const Options*> per_entry_options(entries.size(), nullptr);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    per_entry_options[i] = &per_root[entries[i].root_index];
  }
  const InterprocReport interproc =
      run_interprocedural_checks(entries, per_entry_options);

  // Phase 2 (parallel): the intraprocedural catalogue per file, reusing the
  // phase-1 artifacts, plus that file's interprocedural findings; sorted and
  // keyed per slot, merged in file order.
  struct Slot {
    std::vector<Finding> findings;
    std::vector<std::string> keys;
    std::vector<std::string> stale_allows;
  };
  std::vector<Slot> slots(entries.size());
  for_each_index(entries.size(), options.threads, [&](std::size_t i) {
    const FileEntry& entry = entries[i];
    const Options& effective = per_root[entry.root_index];
    std::vector<Finding> findings;
    if (!effective.checks.empty()) {
      findings = analyze_prepared(entry.file, entry.root_rel, entry.code,
                                  entry.starts, entry.scope, effective);
    }
    for (const Finding& finding : interproc.per_file[i]) {
      findings.push_back(finding);
    }
    std::sort(findings.begin(), findings.end());
    for (Finding& finding : findings) {
      slots[i].keys.push_back(baseline_key(finding, entry.file));
      slots[i].findings.push_back(std::move(finding));
    }
    slots[i].stale_allows = stale_allows_in(entry.file);
  });

  TreeReport report;
  report.files_scanned = entries.size();
  report.call_edges_resolved = interproc.edges_resolved;
  report.call_edges_unresolved = interproc.edges_unresolved;
  for (Slot& slot : slots) {
    for (std::size_t k = 0; k < slot.findings.size(); ++k) {
      report.findings.push_back(std::move(slot.findings[k]));
      report.keys.push_back(std::move(slot.keys[k]));
    }
    for (std::string& stale : slot.stale_allows) {
      report.stale_allows.push_back(std::move(stale));
    }
  }
  return report;
}

TreeReport analyze_tree(const std::string& root, const Options& options) {
  namespace fs = std::filesystem;
  const fs::path root_path{root};
  if (!fs::is_directory(root_path / "src")) {
    throw std::runtime_error{"gridbw-analyze: no src/ directory under " + root};
  }

  std::vector<LoadedFile> files;
  for (std::size_t r = 0; r < scan_roots().size(); ++r) {
    const ScanRoot& scan_root = scan_roots()[r];
    const fs::path dir = root_path / scan_root.dir;
    if (!fs::is_directory(dir)) continue;  // only src/ is mandatory
    std::vector<fs::path> paths;
    for (auto it = fs::recursive_directory_iterator{dir};
         it != fs::recursive_directory_iterator{}; ++it) {
      // Golden-fixture trees contain deliberately bad code.
      if (it->is_directory() && it->path().filename() == "fixtures") {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext == ".hpp" || ext == ".cpp") paths.push_back(it->path());
    }
    std::sort(paths.begin(), paths.end());
    for (const fs::path& path : paths) {
      LoadedFile loaded;
      loaded.root_rel = fs::relative(path, dir).generic_string();
      loaded.rel = std::string{scan_root.dir} + "/" + loaded.root_rel;
      loaded.root_index = r;
      loaded.text = read_file(path);
      if (path.extension() == ".cpp") {
        const fs::path sibling = fs::path{path}.replace_extension(".hpp");
        if (fs::is_regular_file(sibling)) {
          loaded.companion = read_file(sibling);
          loaded.has_companion = true;
        }
      }
      files.push_back(std::move(loaded));
    }
  }
  return analyze_loaded(files, options);
}

void write_file_atomic(const std::string& path, const std::string& body) {
  namespace fs = std::filesystem;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    if (!out) {
      throw std::runtime_error{"gridbw-analyze: cannot write " + tmp};
    }
    out << body;
    out.flush();
    if (!out) {
      throw std::runtime_error{"gridbw-analyze: short write to " + tmp};
    }
  }
  std::error_code error;
  fs::rename(tmp, path, error);
  if (error) {
    fs::remove(tmp, error);
    throw std::runtime_error{"gridbw-analyze: cannot rename " + tmp + " -> " +
                             path};
  }
}

const char* usage_text() {
  return
      "usage: gridbw_analyze --root DIR [options]\n"
      "\n"
      "  --root DIR        repository root; scans src/ (all checks) plus\n"
      "                    tools/, bench/, and tests/ under per-root check\n"
      "                    profiles (fixtures/ directories are skipped)\n"
      "  --baseline FILE   tolerate findings listed in FILE (check|path|line)\n"
      "  --fix-baseline    rewrite FILE with the current findings and exit 0\n"
      "  --checks a,b,...  run only the listed checks (default: all)\n"
      "  --threads N       scan worker threads (0 = hardware default,\n"
      "                    1 = serial; findings are identical either way)\n"
      "  --json            print the findings as a JSON report (with\n"
      "                    files_scanned and scan_ms) instead of text\n"
      "  --json-out FILE   also write the JSON report to FILE\n"
      "  --summary         print new findings grouped by check, diff-style\n"
      "  --list-checks     print the check catalogue and exit\n";
}

}  // namespace gridbw::analyze
