// Golden-fixture and unit tests for gridbw-analyze. Each fixture directory
// is a miniature source tree (fixtures/<case>/src/...) with an
// expected.txt pinning the exact diagnostics — path, line, check id, and
// message — so any behavior change in the analyzer is a visible diff.

#include "analyze.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace gridbw::analyze {
namespace {

std::string fixture_root(const std::string& name) {
  return std::string{GRIDBW_ANALYZE_FIXTURES} + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in) << "missing fixture file: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> render_text(const std::vector<Finding>& findings) {
  std::vector<std::string> lines;
  lines.reserve(findings.size());
  for (const Finding& f : findings) {
    lines.push_back(f.path + ":" + std::to_string(f.line) + ": [" + f.check +
                    "] " + f.message);
  }
  return lines;
}

std::vector<std::string> expected_lines(const std::string& name) {
  std::vector<std::string> lines;
  for (const std::string& line :
       split_lines(read_file(fixture_root(name) + "/expected.txt"))) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

void expect_golden(const std::string& name) {
  const TreeReport report = analyze_tree(fixture_root(name), Options{});
  EXPECT_EQ(render_text(report.findings), expected_lines(name)) << name;
}

// --- golden fixtures: one per check (positive + suppressed + negative) ----

TEST(GoldenFixtures, UnorderedIter) { expect_golden("unordered_iter"); }
TEST(GoldenFixtures, WallClock) { expect_golden("wall_clock"); }
TEST(GoldenFixtures, HotPropagation) { expect_golden("hot_propagation"); }
TEST(GoldenFixtures, HotCallUnresolved) { expect_golden("hot_call_unresolved"); }
TEST(GoldenFixtures, RootProfiles) { expect_golden("root_profiles"); }

// --- mutation tests: seed one bug into a clean fixture region, expect the
// --- check to catch it ----------------------------------------------------

std::string fixture_text(const std::string& name, const std::string& rel) {
  return read_file(fixture_root(name) + "/" + rel);
}

std::string mutate(std::string text, const std::string& from,
                   const std::string& to) {
  const std::size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << "mutation anchor missing: " << from;
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

LoadedFile loaded(const std::string& rel, std::string text,
                  std::string companion = "") {
  LoadedFile f;
  f.rel = rel;
  f.root_rel = rel.substr(std::string{"src/"}.size());
  f.root_index = 0;
  f.text = std::move(text);
  f.companion = std::move(companion);
  f.has_companion = !f.companion.empty();
  return f;
}

std::vector<Finding> analyze_text(const std::string& repo_rel,
                                  const std::string& text) {
  return analyze_loaded({loaded(repo_rel, text)}, Options{}).findings;
}

bool has_finding(const std::vector<Finding>& findings, const std::string& check,
                 int line) {
  for (const Finding& f : findings) {
    if (f.check == check && f.line == line) return true;
  }
  return false;
}

// --- interprocedural mutations: the graph checks need several files, so
// --- these hand analyze_loaded an in-memory tree ---------------------------

TEST(Mutation, InsertingAnAllocationIntoAHotCalleeTripsPropagation) {
  const std::string helper_hpp =
      fixture_text("hot_propagation", "src/core/helper.hpp");
  const std::string helper_cpp =
      fixture_text("hot_propagation", "src/core/helper.cpp");
  const std::string kernel =
      mutate(fixture_text("hot_propagation", "src/core/kernel.cpp"),
             "int charge(int n) { return expand(n) + 1; }",
             "int charge(int n) { return *new int{expand(n) + 1}; }");
  const TreeReport report = analyze_loaded(
      {loaded("src/core/helper.cpp", helper_cpp, helper_hpp),
       loaded("src/core/helper.hpp", helper_hpp),
       loaded("src/core/kernel.cpp", kernel)},
      Options{});
  // charge was the clean interior callee; now the walk flags it too.
  EXPECT_TRUE(has_finding(report.findings, "hot-propagation", 15));
}

TEST(Mutation, StrippingTheCalleeAllowReopensTheWalkBoundary) {
  const std::string helper_hpp =
      fixture_text("hot_propagation", "src/core/helper.hpp");
  const std::string helper_cpp = mutate(
      fixture_text("hot_propagation", "src/core/helper.cpp"),
      "// GRIDBW-ALLOW(hot-propagation): amortized refill, measured off the sweep",
      "//");
  const std::string kernel =
      fixture_text("hot_propagation", "src/core/kernel.cpp");
  const TreeReport report = analyze_loaded(
      {loaded("src/core/helper.cpp", helper_cpp, helper_hpp),
       loaded("src/core/helper.hpp", helper_hpp),
       loaded("src/core/kernel.cpp", kernel)},
      Options{});
  // boundary_refill's allocation stops being sanctioned.
  EXPECT_TRUE(has_finding(report.findings, "hot-propagation", 18));
}

TEST(Mutation, StrippingTheAllowExposesTheHotVirtualCall) {
  const std::string dispatch = mutate(
      fixture_text("hot_call_unresolved", "src/core/dispatch.cpp"),
      "// GRIDBW-ALLOW(hot-call-unresolved): devirtualized in release builds",
      "//");
  const TreeReport report =
      analyze_loaded({loaded("src/core/dispatch.cpp", dispatch)}, Options{});
  EXPECT_TRUE(has_finding(report.findings, "hot-call-unresolved", 24));
}

// --- suppression ----------------------------------------------------------

TEST(Suppression, SameLineAndLineAbove) {
  const SourceFile file = make_source(
      "src/x.cpp",
      "long a = std::time(nullptr);  // GRIDBW-ALLOW(wall-clock): reason\n"
      "// GRIDBW-ALLOW(wall-clock): reason\n"
      "long b = std::time(nullptr);\n"
      "long c = std::time(nullptr);\n");
  EXPECT_TRUE(file.suppressed(1, "wall-clock"));
  EXPECT_TRUE(file.suppressed(3, "wall-clock"));
  EXPECT_FALSE(file.suppressed(4, "wall-clock"));
  EXPECT_FALSE(file.suppressed(1, "unordered-iter"));  // id must match exactly
}

TEST(Suppression, WorksOnTheLastLineWithoutTrailingNewline) {
  const SourceFile file = make_source(
      "src/core/x.cpp",
      "int a;\n"
      "long t = std::time(nullptr);  // GRIDBW-ALLOW(wall-clock): last line, no \\n");
  EXPECT_TRUE(file.suppressed(2, "wall-clock"));
  EXPECT_TRUE(analyze_text("src/core/x.cpp",
                           "long t = std::time(nullptr);  // GRIDBW-ALLOW(wall-clock): x")
                  .empty());
}

TEST(Suppression, TwoIdsOnOneLineSilenceTwoChecks) {
  // One line can trip two checks; both ids ride on the line above.
  const std::string decl = "std::unordered_map<int, long> seen;\n";
  const std::string body = "for (auto& [k, v] : seen) v = std::time(nullptr);\n";
  const std::string both =
      decl + "// GRIDBW-ALLOW(unordered-iter): demo GRIDBW-ALLOW(wall-clock): demo\n" +
      body;
  EXPECT_TRUE(analyze_text("src/core/x.cpp", both).empty());
  const std::string one = decl + "// GRIDBW-ALLOW(unordered-iter): demo\n" + body;
  const std::vector<Finding> findings = analyze_text("src/core/x.cpp", one);
  ASSERT_EQ(findings.size(), 1u);  // wall-clock survives
  EXPECT_EQ(findings[0].check, "wall-clock");
}

TEST(Suppression, UnknownAllowIdIsReportedStale) {
  // Splice the marker so this test file itself never carries a stale ALLOW.
  const std::string text = std::string{"int a;  // GRIDBW-AL"} +
                           "LOW(bogus-check): typo'd id\n"
                           "// GRIDBW-AL" "LOW(wall-clock): known id\n"
                           "long t = std::time(nullptr);\n"
                           "// a prose mention of GRIDBW-AL" "LOW(<check>) is not an id\n";
  const SourceFile file = make_source("src/core/x.cpp", text);
  const std::vector<std::string> stale = stale_allows_in(file);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0], "src/core/x.cpp:1: bogus-check");

  // A stale ALLOW fails the scan on its own: with no finding in the tree the
  // CLI still exits 1 and names the site. The ids of retired and deleted
  // checks are stale like any typo.
  namespace fs = std::filesystem;
  const fs::path root = fs::path{::testing::TempDir()} / "gridbw_analyze_stale";
  fs::create_directories(root / "src" / "core");
  const fs::path path = root / "src" / "core" / "x.cpp";
  for (const std::string id :
       {"bogus-check", "hot-path", "lock-order", "requires-context",
        "atomic-discipline"}) {
    std::ofstream{path} << "int a;  // GRIDBW-AL" "LOW(" + id + "): gone\n";
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(run_cli({"--root", root.string()}, out, err), 1) << id;
    EXPECT_EQ(out.str(), "") << id;
    EXPECT_NE(err.str().find("src/core/x.cpp:1: " + id), std::string::npos)
        << err.str();
  }
  std::ofstream{path} << "int a;\n";
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_cli({"--root", root.string()}, out, err), 0) << err.str();
  fs::remove_all(root);
}

// --- scope model ----------------------------------------------------------

TEST(ScopeModel, CompanionHeaderAnnotationsBindInTheCpp) {
  // A `// gridbw:hot` above a declaration in x.hpp marks the definition in
  // x.cpp, so the throw in its body is a depth-0 finding.
  const TreeReport report = analyze_loaded(
      {loaded("src/core/x.cpp",
              "#include \"core/x.hpp\"\n"
              "int fast(int n) { if (n < 0) throw n; return n; }\n",
              "// gridbw:hot\n"
              "int fast(int n);\n")},
      Options{});
  EXPECT_EQ(report.hot_roots, 1u);
  EXPECT_TRUE(has_finding(report.findings, "hot-propagation", 2));
}

// --- lexer-lite -----------------------------------------------------------

TEST(Stripper, PreservesLineStructure) {
  const std::string text =
      "int a; // comment with std::mt19937\n"
      "/* block\n   spanning\n   lines */ int b;\n"
      "const char* s = \"std::rand()\";\n";
  const std::string stripped = strip_comments_and_strings(text);
  EXPECT_EQ(split_lines(stripped).size(), split_lines(text).size());
  EXPECT_EQ(stripped.find("mt19937"), std::string::npos);
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
}

TEST(Stripper, CommentedDirectivesDoNotCount) {
  // A commented-out quoted include draws no include edge: kernel.cpp stops
  // seeing helper.hpp, so the walk from sweep no longer reaches expand.
  const std::string helper_hpp =
      fixture_text("hot_propagation", "src/core/helper.hpp");
  const std::string helper_cpp =
      fixture_text("hot_propagation", "src/core/helper.cpp");
  const std::string kernel =
      fixture_text("hot_propagation", "src/core/kernel.cpp");
  const auto helper_findings = [&](const std::string& kernel_text) {
    std::size_t count = 0;
    for (const Finding& f :
         analyze_loaded({loaded("src/core/helper.cpp", helper_cpp, helper_hpp),
                         loaded("src/core/helper.hpp", helper_hpp),
                         loaded("src/core/kernel.cpp", kernel_text)},
                        Options{})
             .findings) {
      if (f.path == "src/core/helper.cpp" && f.check == "hot-propagation") ++count;
    }
    return count;
  };
  ASSERT_EQ(helper_findings(kernel), 1u);
  EXPECT_EQ(helper_findings(mutate(kernel, "#include \"core/helper.hpp\"",
                                   "// #include \"core/helper.hpp\"")),
            0u);
  EXPECT_TRUE(analyze_text("src/core/x.cpp",
                           "// long t = std::time(nullptr);\nint a;\n")
                  .empty());
}

// --- check filtering and output rendering ---------------------------------

TEST(Options, ChecksFilterRestrictsToListed) {
  const LoadedFile file = loaded("src/core/x.cpp",
                                 "std::unordered_map<int, int> m;\n"
                                 "void f() { for (auto& kv : m) (void)kv; }\n"
                                 "long t = std::time(nullptr);\n");
  ASSERT_TRUE(has_finding(analyze_loaded({file}, Options{}).findings,
                          "unordered-iter", 2));
  Options only_wall_clock;
  only_wall_clock.checks.insert("wall-clock");
  const std::vector<Finding> findings =
      analyze_loaded({file}, only_wall_clock).findings;
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "wall-clock");
}

TEST(Output, JsonIsEscapedAndDeterministic) {
  const std::vector<Finding> findings = {
      {"src/a.cpp", 3, "wall-clock", "a \"quoted\" message"}};
  const std::string json = render_json(findings);
  EXPECT_NE(json.find("\"path\": \"src/a.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 3"), std::string::npos);
  EXPECT_NE(json.find("a \\\"quoted\\\" message"), std::string::npos);
}

TEST(Catalogue, ListsAllFiveChecks) {
  // The checks no other wall catches, in catalogue order; the
  // interprocedural family closes it.
  const std::vector<CheckInfo>& catalogue = check_catalogue();
  const std::vector<std::string> expected = {"unordered-iter", "wall-clock",
                                             "hot-propagation", "hot-call-unresolved"};
  std::vector<std::string> ids;
  for (const CheckInfo& check : catalogue) ids.emplace_back(check.id);
  EXPECT_EQ(ids, expected);
}

TEST(Output, AtomicWriteLandsWholeFileAndLeavesNoTemp) {
  const std::string path =
      ::testing::TempDir() + "gridbw_analyze_atomic_test.json";
  write_file_atomic(path, "[]\n");
  EXPECT_EQ(read_file(path), "[]\n");
  // Replacing an existing file goes through the same temp + rename, so a
  // reader can never observe a truncated body; the temp must be gone.
  write_file_atomic(path, "[{\"line\": 3}]\n");
  EXPECT_EQ(read_file(path), "[{\"line\": 3}]\n");
  std::ifstream temp{path + ".tmp"};
  EXPECT_FALSE(temp.good());
  std::remove(path.c_str());
}

TEST(Output, AtomicWriteThrowsWhenTheDirectoryIsMissing) {
  const std::string path =
      ::testing::TempDir() + "gridbw_analyze_no_such_dir/report.json";
  EXPECT_THROW(write_file_atomic(path, "x"), std::runtime_error);
}

TEST(Cli, UsageTextDocumentsEveryFlag) {
  const std::string usage = usage_text();
  for (const char* flag :
       {"--root", "--checks", "--json-out", "--list-checks", "--help"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
  // The retired flags are usage errors, not silently ignored.
  for (const char* flag : {"--baseline", "--fix-baseline", "--threads",
                           "--json", "--summary"}) {
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(run_cli({flag}, out, err), 2) << flag;
  }
}

TEST(RootProfiles, SkippedChecksComeBackWithAnExplicitChecksFilter) {
  // bench/ relaxes wall-clock during a default scan (the golden fixture pins
  // that), but per-root profiles only subtract: a user asking for exactly
  // the skipped check gets an empty bench scan, not a full-catalogue one.
  Options only_wall_clock;
  only_wall_clock.checks.insert("wall-clock");
  const TreeReport report =
      analyze_tree(fixture_root("root_profiles"), only_wall_clock);
  for (const Finding& f : report.findings) {
    EXPECT_EQ(f.check, "wall-clock");
    EXPECT_NE(f.path.rfind("bench/", 0), 0u) << f.path;
  }
  // src/ and tools/ keep wall-clock on, so the filter still finds those two.
  EXPECT_EQ(report.findings.size(), 2u);
}

// --- the real tree stays clean --------------------------------------------
// The authoritative zero-findings wall is the `gridbw_analyze` ctest (the
// CLI); these sanity checks keep the library API honest about scan scope
// when run from the build tree.

TEST(WholeTree, ScansAtLeastTheSeedFileCount) {
#ifdef GRIDBW_ANALYZE_REPO_ROOT
  const TreeReport report = analyze_tree(GRIDBW_ANALYZE_REPO_ROOT, Options{});
  EXPECT_GE(report.files_scanned, 100u);
  EXPECT_TRUE(report.findings.empty())
      << render_text(report.findings).front();
  EXPECT_TRUE(report.stale_allows.empty()) << report.stale_allows.front();
#else
  GTEST_SKIP() << "repo root not wired";
#endif
}

TEST(WholeTree, EveryHotAnnotationBindsASymbol) {
#ifdef GRIDBW_ANALYZE_REPO_ROOT
  // Every standalone `// gridbw:hot` line in the scanned tree binds exactly
  // one function the hot walk starts from: a marker that binds nothing
  // would silently skip its body's depth-0 scan.
  namespace fs = std::filesystem;
  std::size_t annotations = 0;
  for (const ScanRoot& scan_root : scan_roots()) {
    const fs::path dir = fs::path{GRIDBW_ANALYZE_REPO_ROOT} / scan_root.dir;
    if (!fs::is_directory(dir)) continue;
    for (auto it = fs::recursive_directory_iterator{dir};
         it != fs::recursive_directory_iterator{}; ++it) {
      if (it->is_directory() && it->path().filename() == "fixtures") {
        it.disable_recursion_pending();
        continue;
      }
      const std::string ext = it->path().extension().string();
      if (ext != ".hpp" && ext != ".cpp") continue;
      for (const std::string& line : split_lines(read_file(it->path().string()))) {
        const std::size_t first = line.find_first_not_of(" \t");
        if (first == std::string::npos) continue;
        const std::size_t last = line.find_last_not_of(" \t\r");
        annotations += line.substr(first, last - first + 1) == "// gridbw:hot";
      }
    }
  }
  const TreeReport report = analyze_tree(GRIDBW_ANALYZE_REPO_ROOT, Options{});
  EXPECT_GE(annotations, 18u);
  EXPECT_EQ(report.hot_roots, annotations);
#else
  GTEST_SKIP() << "repo root not wired";
#endif
}

}  // namespace
}  // namespace gridbw::analyze
