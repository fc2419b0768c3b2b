#!/usr/bin/env python3
"""gridbw_bench_smoke: runs `run.py --quick` twice with the default seed and
once with --seed=7, then checks that

  * every run passes its correctness checks;
  * every metric BENCHMARK.json names appears for every workload;
  * the deterministic outputs (decision fingerprints, accept rate, resource
    util, and the count and ratio metrics of the traced run) are
    byte-identical between the two default-seed runs;
  * the seed reaches the workloads: every workload decides differently
    under --seed=7.

    python3 bench/suite/smoke_test.py --binary PATH/gridbw_bench
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

SUITE = Path(__file__).resolve().parent
SPEC = json.loads((SUITE.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
DETERMINISTIC_END_TO_END = {"accept_rate", "resource_util"}
DETERMINISTIC_UNITS = {"count", "ratio"}


def quick_run(binary: str, seed: int, out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--quick", "--binary", binary,
         "--seed", str(seed), "--out", str(out)],
        stdout=subprocess.DEVNULL, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"run.py --quick --seed={seed} exited {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))["workloads"]


def deterministic(workloads: dict) -> dict:
    """The values two same-seed runs must reproduce exactly."""
    keep = {}
    for name, modes in workloads.items():
        keep[name] = {
            "fingerprint": modes["timed"]["fingerprint"],
            "end_to_end": {m: modes["timed"]["samples"][m]
                           for m in DETERMINISTIC_END_TO_END},
            "per_layer": {m["name"]: modes["traced"]["samples"][m["name"]]
                          for m in SPEC["per_layer"] if m["unit"] in DETERMINISTIC_UNITS},
        }
    return keep


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True)
    binary = parser.parse_args().binary

    problems = []
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        first = quick_run(binary, 42, Path(tmp) / "a.json")
        second = quick_run(binary, 42, Path(tmp) / "b.json")
        other = quick_run(binary, 7, Path(tmp) / "c.json")

    for name, modes in first.items():
        for mode, declared in (("timed", "end_to_end"), ("traced", "per_layer")):
            missing = [m["name"] for m in SPEC[declared]
                       if m["name"] not in modes[mode]["metrics"]]
            if missing:
                problems.append(f"{name} {mode}: missing {missing}")

    a, b = deterministic(first), deterministic(second)
    for name in a:
        if json.dumps(a[name], sort_keys=True) != json.dumps(b[name], sort_keys=True):
            problems.append(f"{name}: deterministic outputs differ between same-seed runs")
        if other[name]["timed"]["fingerprint"] == first[name]["timed"]["fingerprint"]:
            problems.append(f"{name}: --seed=7 decided exactly like --seed=42")

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke_test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
