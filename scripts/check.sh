#!/usr/bin/env bash
# Verification passes. Default: configure, build, run the test suite, and
# smoke every bench in --quick mode. Exits non-zero on the first failure.
#
#   scripts/check.sh            full pass (build + ctest + bench smoke)
#   scripts/check.sh --quick    bench smoke only, over the already-built
#                               `build` tree (no configure, build or ctest;
#                               for a job that has just built and tested)
#   scripts/check.sh --tidy     clang-tidy wall (scripts/tidy.sh, compile-db)
#   scripts/check.sh --tsan     build with GRIDBW_SANITIZE=thread and run the
#                               whole suite + TSan stress tests under
#                               TSAN_OPTIONS=halt_on_error=1
#   scripts/check.sh --asan     build with GRIDBW_SANITIZE=address, run suite
#   scripts/check.sh --analyze  build tools/gridbw_analyze and run the
#                               whole-tree scan (fails on any finding or stale
#                               GRIDBW-ALLOW, and over a 2000 ms budget)
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-full}"

configure_build() {
  # Respect an already-configured build tree (whatever its generator);
  # otherwise prefer Ninja when available.
  local dir="$1"; shift
  if [ -f "$dir/CMakeCache.txt" ]; then
    cmake -B "$dir" "$@"
  elif command -v ninja > /dev/null; then
    cmake -B "$dir" -G Ninja "$@"
  else
    cmake -B "$dir" "$@"
  fi
  cmake --build "$dir" -j "$(nproc)"
}

case "$MODE" in
  --tidy)
    exec scripts/tidy.sh
    ;;
  --tsan)
    configure_build build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGRIDBW_SANITIZE=thread
    TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
      ctest --test-dir build-tsan --output-on-failure -j "$(nproc)"
    echo "tsan pass clean"
    exit 0
    ;;
  --asan)
    configure_build build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGRIDBW_SANITIZE=address
    ASAN_OPTIONS="detect_leaks=1" UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
      ctest --test-dir build-asan --output-on-failure -j "$(nproc)"
    echo "asan pass clean"
    exit 0
    ;;
  --analyze)
    # Build only the analyzer CLI (standalone: no gtest/benchmark needed),
    # then scan the tree.
    if [ -f build/CMakeCache.txt ]; then
      DIR=build
    else
      DIR=build-analyze
      cmake -B "$DIR" -DCMAKE_BUILD_TYPE=Release
    fi
    cmake --build "$DIR" -j "$(nproc)" --target gridbw_analyze
    ANALYZER="$DIR/tools/gridbw_analyze/gridbw_analyze"
    # Findings on stdout; the full machine-readable report (findings + scan
    # metadata) lands next to the build for CI to upload.
    "$ANALYZER" --root . --json-out "$DIR/analyze_report.json"
    FILES_SCANNED=$(sed -n 's/^  "files_scanned": \([0-9]*\),$/\1/p' "$DIR/analyze_report.json")
    SCAN_MS=$(sed -n 's/^  "scan_ms": \([0-9]*\),$/\1/p' "$DIR/analyze_report.json")
    echo "analyze: files_scanned=${FILES_SCANNED} scan_ms=${SCAN_MS}"
    if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
      {
        echo "### gridbw-analyze"
        echo ""
        echo "| files_scanned | scan_ms |"
        echo "| ---: | ---: |"
        echo "| ${FILES_SCANNED} | ${SCAN_MS} |"
      } >> "$GITHUB_STEP_SUMMARY"
    fi
    # Latency budget: the call-graph passes must not silently regress
    # analyzer turnaround.
    if [ "${SCAN_MS:-0}" -gt 2000 ]; then
      echo "analyze: whole-tree scan took ${SCAN_MS} ms (budget: 2000 ms)" >&2
      exit 1
    fi
    echo "analyze pass clean"
    exit 0
    ;;
  full|--quick)
    ;;
  *)
    echo "check.sh: unknown mode '$MODE' (expected --quick, --tidy, --tsan, --asan, or --analyze)" >&2
    exit 2
    ;;
esac

if [ "$MODE" = full ]; then
  configure_build build
  ctest --test-dir build --output-on-failure
elif [ ! -d build/bench ]; then
  echo "check.sh --quick: no build/bench; build first (scripts/check.sh does)" >&2
  exit 2
fi

for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "== $(basename "$b") =="
  if [[ "$(basename "$b")" == micro_* ]]; then
    # benchmark >= 1.8 wants a "0.01s" suffix, older versions a bare double.
    "$b" --benchmark_min_time=0.01s > /dev/null 2>&1 \
      || "$b" --benchmark_min_time=0.01 > /dev/null
  else
    "$b" --quick > /dev/null
  fi
done
echo "all checks passed"
