// The concurrency-discipline check family, built on the scope model
// (scope.cpp): guarded-by, cv-wait-predicate, lock-scope-hygiene,
// atomic-discipline.

#include "scan.hpp"

#include <cstddef>
#include <set>
#include <string>
#include <vector>

namespace gridbw::analyze {

namespace {

// ---------------------------------------------------------------------------
// guarded-by
// ---------------------------------------------------------------------------

void check_guarded_by(FileEntry& entry) {
  for (const GuardedField& field : entry.scope.guarded) {
    for (const std::size_t hit : find_all(entry.file.code, field.name, true)) {
      if (line_of(entry.file.starts, hit) == field.decl_line) continue;
      bool held = false;
      for (const LockSite& site : entry.scope.locks) {
        for (const std::string& mutex : site.mutexes) {
          held = held || (site.pos < hit && hit < site.release &&
                          mutex_matches(mutex, field.mutex));
        }
      }
      if (!held) {
        report(entry, hit, "guarded-by",
               "field '" + field.name + "' is gridbw:guarded_by(" +
                   field.mutex + ") but is accessed without '" + field.mutex +
                   "' held (scoped_lock/lock_guard/unique_lock)");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// cv-wait-predicate
// ---------------------------------------------------------------------------

void check_cv_wait(FileEntry& entry) {
  const std::string& code = entry.file.code;
  for (const std::string& cv : entry.scope.cv_names) {
    for (const std::size_t hit : find_all(code, cv, true)) {
      std::size_t i = hit + cv.size();
      if (code.compare(i, 2, "->") == 0) {
        i += 2;
      } else if (i < code.size() && code[i] == '.') {
        i += 1;
      } else {
        continue;
      }
      std::size_t end = i;
      while (end < code.size() && is_ident(code[end])) ++end;
      const std::string member = code.substr(i, end - i);
      std::size_t need = 0;  // top-level commas the predicate overload needs
      if (member == "wait") {
        need = 1;
      } else if (member == "wait_for" || member == "wait_until") {
        need = 2;
      } else {
        continue;
      }
      const std::size_t open = skip_ws(code, end);
      if (open >= code.size() || code[open] != '(') continue;
      int depth = 0;
      std::size_t commas = 0;
      for (std::size_t j = open; j < code.size(); ++j) {
        const char c = code[j];
        if (c == '(' || c == '{' || c == '[') ++depth;
        if (c == ')' || c == '}' || c == ']') {
          --depth;
          if (depth == 0) break;
        }
        if (c == ',' && depth == 1) ++commas;
      }
      if (commas < need) {
        report(entry, hit, "cv-wait-predicate",
               "condition_variable " + member +
                   " without a predicate — spurious wakeups desynchronize "
                   "the protocol; use the predicate overload");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// lock-scope-hygiene
// ---------------------------------------------------------------------------

void check_lock_hygiene(FileEntry& entry) {
  struct Token {
    const char* token;
    bool word;
    const char* what;
  };
  static const Token kTokens[] = {
      {"throw", true, "throw"},
      {"std::cout", false, "stream I/O (std::cout)"},
      {"std::cerr", false, "stream I/O (std::cerr)"},
      {"printf", true, "printf I/O"},
      {"fprintf", true, "printf I/O"},
      {"fputs", true, "file I/O"},
      {"fwrite", true, "file I/O"},
      {"fopen", true, "file I/O"},
      {"ofstream", true, "file stream construction"},
      {"ifstream", true, "file stream construction"},
      {"->record(", false, "virtual sink call (TraceSink::record)"},
      {".submit(", false, "blocking pool submit"},
      {"->submit(", false, "blocking pool submit"},
      {".join(", false, "blocking join"},
      {"->join(", false, "blocking join"},
      {"sleep_for", true, "sleep"},
      {".wait()", false, "blocking wait"},
      {"->wait()", false, "blocking wait"},
  };
  std::set<std::size_t> reported;
  for (const LockSite& site : entry.scope.locks) {
    for (const std::string& mutex : site.mutexes) {
      for (const Token& t : kTokens) {
        for (const std::size_t hit :
             find_all(entry.file.code, t.token, t.word, site.pos, site.release)) {
          if (!reported.insert(hit).second) continue;
          report(entry, hit, "lock-scope-hygiene",
                 std::string{t.what} + " while '" + mutex +
                     "' is held — critical sections stay compute-only; "
                     "move it outside the lock scope");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// atomic-discipline
// ---------------------------------------------------------------------------

void check_atomic_discipline(FileEntry& entry) {
  const std::string& code = entry.file.code;
  // Shared mutable state is mutex-protected everywhere except the two
  // sanctioned lock-free designs: the per-thread counter shards and the
  // thread pool.
  const std::string& path = entry.file.rel_path;
  const bool sanctioned =
      path == "src/obs/counters.hpp" || path == "src/obs/counters.cpp" ||
      path == "src/util/thread_pool.hpp" || path == "src/util/thread_pool.cpp";
  for (const std::size_t hit : find_all(code, "std::atomic", false)) {
    if (sanctioned || (hit > 0 && is_ident(code[hit - 1]))) continue;
    report(entry, hit, "atomic-discipline",
           "raw std::atomic outside the sanctioned modules "
           "(src/obs/counters, src/util/thread_pool) — use "
           "CounterRegistry, a mutex, or justify with "
           "GRIDBW-ALLOW(atomic-discipline)");
  }
  // Non-default memory orders are a finding everywhere, sanctioned modules
  // included: relaxed/acquire/release reasoning must be written down.
  static const std::string kOrder = "memory_order";
  for (const std::size_t hit : find_all(code, kOrder, false)) {
    if (hit > 0 && is_ident(code[hit - 1])) continue;
    std::size_t i = hit + kOrder.size();
    if (code.compare(i, 1, "_") == 0) {
      i += 1;
    } else if (code.compare(i, 2, "::") == 0) {
      i += 2;
    } else {
      continue;  // the plain std::memory_order type, no specific order
    }
    std::size_t end = i;
    while (end < code.size() && is_ident(code[end])) ++end;
    const std::string order = code.substr(i, end - i);
    if (order.empty() || order == "seq_cst") continue;
    report(entry, hit, "atomic-discipline",
           "non-default memory_order '" + order +
               "' — seq_cst is the default; weaker orders need a "
               "GRIDBW-ALLOW(atomic-discipline) justification");
  }
}

}  // namespace

void run_concurrency_checks(FileEntry& entry) {
  check_guarded_by(entry);
  check_cv_wait(entry);
  check_lock_hygiene(entry);
  check_atomic_discipline(entry);
}

}  // namespace gridbw::analyze
