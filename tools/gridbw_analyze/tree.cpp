// The tree scan: loads the scan roots from disk and runs the three serial
// phases — per-file tables, the interprocedural checks over the call graph,
// the per-file catalogue — then merges findings in file order.

#include "scan.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace gridbw::analyze {

namespace {

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
      {"tools", {}},
      // bench: measures the machine.
      {"bench", {"wall-clock"}},
      {"tests", {}},
  };
  return kRoots;
}

TreeReport analyze_loaded(const std::vector<LoadedFile>& files,
                          const Options& options) {
  // Effective per-root check set: (user selection or the full catalogue)
  // minus the root's skip profile. An empty set scans nothing there.
  std::vector<std::set<std::string>> per_root;
  for (const ScanRoot& scan_root : scan_roots()) {
    std::set<std::string> checks;
    for (const CheckInfo& check : check_catalogue()) {
      if ((options.checks.empty() || options.checks.count(check.id) != 0) &&
          scan_root.skip.count(check.id) == 0) {
        checks.insert(check.id);
      }
    }
    per_root.push_back(std::move(checks));
  }

  // Phase 1: per-file tables — stripped code, scope model, symbol index,
  // call sites.
  std::vector<FileEntry> entries(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    const LoadedFile& loaded = files[i];
    FileEntry& entry = entries[i];
    entry.root_rel = loaded.root_rel;
    entry.checks = &per_root[loaded.root_index];
    entry.file = make_source(loaded.rel, loaded.text);
    if (loaded.has_companion) {
      entry.file.companion_code = strip_comments_and_strings(loaded.companion);
      entry.file.companion_raw_lines = split_lines(loaded.companion);
      entry.file.companion_code_lines = split_lines(entry.file.companion_code);
    }
    entry.functions = outermost_functions(entry.file);
    entry.symbols = extract_symbols(entry.file, entry.functions);
    entry.calls = extract_calls(entry.file.code, entry.functions);
  }

  // Phase 2: the interprocedural checks over the merged tables.
  TreeReport report;
  report.files_scanned = entries.size();
  run_interprocedural_checks(entries, report);

  // Phase 3: the per-file catalogue; findings merge in file order.
  for (FileEntry& entry : entries) {
    run_file_checks(entry);
    std::sort(entry.findings.begin(), entry.findings.end());
    for (Finding& finding : entry.findings) {
      report.findings.push_back(std::move(finding));
    }
    for (std::string& stale : stale_allows_in(entry.file)) {
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

}  // namespace gridbw::analyze
