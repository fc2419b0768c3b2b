#!/usr/bin/env python3
"""Feeds compare.py synthetic result files for every verdict and checks the
verdicts it prints and its exit status. Run as ctest gridbw_bench_compare or
directly: python3 bench/suite/compare_test.py"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

SUITE = Path(__file__).resolve().parent
SPEC = json.loads((SUITE.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def result(metric: str, samples: list[float], failed: int = 0) -> dict:
    timed = {"samples": {metric: samples}, "attempted": 1000, "failed": failed}
    return {"env": {}, "workloads": {"w": {"timed": timed}}}


def compare(tmp: Path, base: list[dict], head: list[dict]) -> tuple[int, dict[str, str]]:
    paths: dict[str, list[str]] = {"base": [], "head": []}
    for side, documents in (("base", base), ("head", head)):
        for i, document in enumerate(documents):
            path = tmp / f"{side}{i}.json"
            path.write_text(json.dumps(document), encoding="utf-8")
            paths[side].append(str(path))
    proc = subprocess.run(
        [sys.executable, str(SUITE / "compare.py"), "--base", *paths["base"],
         "--head", *paths["head"]],
        capture_output=True, text=True, check=False)
    verdicts = {}
    for line in proc.stdout.splitlines():
        words = line.split()
        if len(words) > 2 and words[0] == "w" and words[1] in BOUNDS:
            verdicts[words[1]] = words[-1]
    return proc.returncode, verdicts


def main() -> int:
    t, r = BOUNDS["total_s"], BOUNDS["req_per_s"]
    steady = [1.0] * 4
    cases = [
        # name, metric, base files, head files, expected verdict, expected exit
        ("unchanged", "total_s", [steady], [[1.0 + t / 2] * 4], "unchanged", 0),
        ("worse", "total_s", [steady], [[1.0 + 2 * t] * 4], "worse", 1),
        ("better", "total_s", [steady], [[1.0 - 2 * t] * 4], "better", 0),
        ("unresolved", "total_s", [[0.5, 1.0, 1.5, 2.0]], [[0.6, 1.0, 1.4, 2.1]],
         "unresolved", 0),
        # A wide spread does not hide a median that got worse by more than the bound.
        ("wide but worse", "total_s", [[0.5, 1.0, 1.5, 2.0]],
         [[1.0 + 4 * t, 1.5 + 4 * t, 2.0 + 4 * t, 2.5 + 4 * t]], "worse", 1),
        # Wide spread, but every HEAD run beats every BASE run.
        ("every head run beats", "total_s", [[1.0, 1.4, 1.8, 2.2]],
         [[0.5, 0.6, 0.7, 0.8]], "better", 0),
        # Samples pool across files.
        ("pooled files", "total_s", [steady, steady], [[1.0 + 2 * t] * 2], "worse", 1),
        # Higher is better for throughput, so a drop is worse.
        ("direction", "req_per_s", [[100.0] * 4], [[100.0 * (1 - 2 * r)] * 4], "worse", 1),
    ]
    failures = []
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for name, metric, base, head, want, want_exit in cases:
            code, verdicts = compare(Path(tmp), [result(metric, s) for s in base],
                                     [result(metric, s) for s in head])
            if verdicts.get(metric) != want or code != want_exit:
                failures.append(f"{name}: got {verdicts.get(metric)}/exit {code}, "
                                f"want {want}/exit {want_exit}")
        # Same timings, but HEAD failed a correctness check.
        code, verdicts = compare(Path(tmp), [result("total_s", steady)],
                                 [result("total_s", steady, failed=1)])
        if verdicts.get("total_s") != "unchanged" or code != 1:
            failures.append(f"error rate rose: got {verdicts.get('total_s')}/exit {code}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("compare_test: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
