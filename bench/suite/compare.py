#!/usr/bin/env python3
"""Compare gridbw-bench results of two commits.

    python3 bench/suite/compare.py --base BASE.json... --head HEAD.json...

Each side takes one or more result files written by `run.py --out`. For
every (workload, end-to-end metric) the raw samples of each side's files are
pooled and summarised by median and quartiles (statistics.quantiles, n=4).
The verdict uses the metric's bound and direction from BENCHMARK.json:

  worse       HEAD's median is worse than BASE's by more than the bound;
  unresolved  otherwise, when either side's spread (q3 - q1) / median is
              wider than the bound, unless every HEAD sample beats every
              BASE sample;
  better      HEAD's median is better than BASE's by more than the bound;
  unchanged   otherwise.

A wide spread never hides a regression: it only keeps a median that did
not get worse from reading as `unchanged` or `better`.

The exit status is 1 when any verdict is `worse` or a workload's error rate
(failed / attempted checks) is higher on HEAD, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import summary  # the statistic run.py reports, so both read alike

SPEC = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def spread(samples: list[float]) -> float:
    s = summary(samples)
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0


def verdict(base: list[float], head: list[float], bound: float, higher_better: bool) -> str:
    sign = 1.0 if higher_better else -1.0
    base_median, head_median = statistics.median(base), statistics.median(head)
    if base_median == 0:  # no relative change exists; end-to-end metrics are never 0
        return "unchanged" if head_median == 0 else "unresolved"
    gain = sign * (head_median - base_median) / abs(base_median)
    if gain < -bound:
        return "worse"
    every_head_beats = all(sign * (h - b) > 0 for h in head for b in base)
    if max(spread(base), spread(head)) > bound and not every_head_beats:
        return "unresolved"
    if gain > bound:
        return "better"
    return "unchanged"


def load_side(paths: list[Path]) -> tuple[dict, dict]:
    """Pooled samples[workload][metric] and [attempted, failed] per workload."""
    samples: dict[str, dict[str, list[float]]] = {}
    checks: dict[str, list[int]] = {}
    for path in paths:
        document = json.loads(path.read_text(encoding="utf-8"))
        for workload, modes in document["workloads"].items():
            tally = checks.setdefault(workload, [0, 0])
            for mode in modes.values():
                tally[0] += mode["attempted"]
                tally[1] += mode["failed"]
            for metric, values in modes.get("timed", {}).get("samples", {}).items():
                samples.setdefault(workload, {}).setdefault(metric, []).extend(values)
    return samples, checks


def error_rate(tally: list[int]) -> float:
    return tally[1] / tally[0] if tally[0] else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--head", type=Path, nargs="+", required=True)
    args = parser.parse_args()

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    base, base_checks = load_side(args.base)
    head, head_checks = load_side(args.head)

    failing = False
    print(f"{'workload':14} {'metric':14} {'base median [q1, q3] n':>38} "
          f"{'head median [q1, q3] n':>38} {'change':>8}  verdict")
    for workload in sorted(set(base) & set(head)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, h = base[workload].get(name), head[workload].get(name)
            if not b or not h:
                print(f"{workload:14} {name:14} missing on one side")
                continue
            v = verdict(b, h, metric["bound"], metric["better"] == "higher")
            failing |= v == "worse"
            cells = [f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] {s['n']}"
                     for s in (summary(b), summary(h))]
            bm, hm = statistics.median(b), statistics.median(h)
            change = f"{(hm - bm) / abs(bm):+.1%}" if bm else "n/a"
            print(f"{workload:14} {name:14} {cells[0]:>38} {cells[1]:>38} {change:>8}  {v}")
        before = error_rate(base_checks[workload])
        after = error_rate(head_checks[workload])
        if after > before:
            failing = True
            print(f"{workload:14} error_rate rose from {before:.6g} to {after:.6g}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
