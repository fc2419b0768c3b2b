#!/usr/bin/env python3
"""trace_schema_check: validate the JSONL admission-trace schema.

Validates trace files emitted by the `--trace` flag of the fig benches
(src/obs/trace_sink.cpp, DESIGN.md §5e):

  * every line is a standalone JSON object with an `event` field,
  * each event kind carries exactly its documented key set, with the
    documented types (ints for req/attempt, finite numbers for t/sigma/
    bw/backoff, taxonomy strings for reason),
  * each scheduler block's `accepted`/`rejected` meta totals reconcile
    exactly with the accepted/rejected events recorded inside the block.

Run against existing files:

    python3 scripts/trace_schema_check.py trace.jsonl ...

or hand it a bench binary to drive end to end (the ctest mode): the bench
is run twice with the same seed into a temp directory, both traces are
validated, and the two runs must be byte-identical:

    python3 scripts/trace_schema_check.py --bench build/bench/fig4_rigid_heuristics
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import subprocess
import sys
import tempfile

EVENT_KEYS = {
    "submitted": {"event", "req", "t", "attempt"},
    "accepted": {"event", "req", "t", "attempt", "sigma", "bw"},
    "rejected": {"event", "req", "t", "attempt", "reason"},
    "retried": {"event", "req", "t", "attempt", "backoff"},
    "preempted": {"event", "req", "t"},
    "reclaimed": {"event", "req", "t", "bw"},
    "expired": {"event", "req", "t", "bw"},
    "revoked": {"event", "req", "t", "reason", "bw"},
    "reshaped": {"event", "req", "t", "bw"},
    "meta": {"event", "key", "value"},
}

REASONS = {
    "degenerate_window",
    "infeasible_rate",
    "ingress_saturated",
    "egress_saturated",
    "both_ports_saturated",
    "no_feasible_start",
    "retro_removed",
    "retries_exhausted",
    "release_before_watermark",
}


def is_finite_number(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def is_count(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


class Checker:
    def __init__(self, path: str):
        self.path = path
        self.errors: list[str] = []
        # Per-scheduler-block reconciliation state.
        self.scheduler: str | None = None
        self.counts = {"accepted": 0, "rejected": 0}

    def error(self, lineno: int, message: str) -> None:
        self.errors.append(f"{self.path}:{lineno}: {message}")

    def check_line(self, lineno: int, line: str) -> None:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            self.error(lineno, f"not valid JSON: {e}")
            return
        if not isinstance(obj, dict):
            self.error(lineno, "line is not a JSON object")
            return
        kind = obj.get("event")
        if kind not in EVENT_KEYS:
            self.error(lineno, f"unknown event kind {kind!r}")
            return
        keys = set(obj)
        if keys != EVENT_KEYS[kind]:
            self.error(
                lineno,
                f"{kind}: key set {sorted(keys)} != expected "
                f"{sorted(EVENT_KEYS[kind])}",
            )
            return

        if kind == "meta":
            if not isinstance(obj["key"], str) or not isinstance(obj["value"], str):
                self.error(lineno, "meta: key/value must be strings")
                return
            self.reconcile_meta(lineno, obj["key"], obj["value"])
            return

        if not is_count(obj["req"]) or obj["req"] < 1:
            self.error(lineno, f"{kind}: req must be a positive integer")
        if not is_finite_number(obj["t"]):
            self.error(lineno, f"{kind}: t must be a finite number")
        if "attempt" in obj and (not is_count(obj["attempt"]) or obj["attempt"] < 1):
            self.error(lineno, f"{kind}: attempt must be an integer >= 1")
        if kind == "retried" and isinstance(obj.get("attempt"), int):
            if obj["attempt"] < 2:
                self.error(lineno, "retried: attempt must be >= 2")
        if "sigma" in obj and not is_finite_number(obj["sigma"]):
            self.error(lineno, f"{kind}: sigma must be a finite number")
        if "bw" in obj and (not is_finite_number(obj["bw"]) or obj["bw"] <= 0):
            self.error(lineno, f"{kind}: bw must be a finite number > 0")
        if "backoff" in obj and (
            not is_finite_number(obj["backoff"]) or obj["backoff"] < 0
        ):
            self.error(lineno, f"{kind}: backoff must be a finite number >= 0")
        if kind == "rejected" and obj["reason"] not in REASONS:
            self.error(lineno, f"rejected: unknown reason {obj['reason']!r}")
        if kind == "revoked" and obj["reason"] not in REASONS:
            self.error(lineno, f"revoked: unknown reason {obj['reason']!r}")

        if kind in self.counts:
            self.counts[kind] += 1

    def reconcile_meta(self, lineno: int, key: str, value: str) -> None:
        if key == "scheduler":
            self.scheduler = value
            self.counts = {"accepted": 0, "rejected": 0}
        elif key in self.counts:
            if self.scheduler is None:
                self.error(lineno, f"meta {key!r} outside a scheduler block")
                return
            try:
                claimed = int(value)
            except ValueError:
                self.error(lineno, f"meta {key!r}: value {value!r} is not an integer")
                return
            seen = self.counts[key]
            if claimed != seen:
                self.error(
                    lineno,
                    f"scheduler {self.scheduler!r}: meta claims {claimed} "
                    f"{key} but the block recorded {seen} events",
                )

    def run(self) -> int:
        text = pathlib.Path(self.path).read_text(encoding="utf-8")
        lines = text.splitlines()
        if not lines:
            self.errors.append(f"{self.path}: trace is empty")
        for lineno, line in enumerate(lines, 1):
            self.check_line(lineno, line)
        return len(lines)


def check_file(path: str) -> list[str]:
    checker = Checker(path)
    count = checker.run()
    if not checker.errors:
        print(f"{path}: {count} lines OK")
    return checker.errors


def run_bench_twice(bench: str) -> list[str]:
    errors: list[str] = []
    with tempfile.TemporaryDirectory(prefix="gridbw_trace_") as tmp:
        traces = [str(pathlib.Path(tmp) / f"run{i}.jsonl") for i in (1, 2)]
        for trace in traces:
            cmd = [bench, "--quick", "--reps=1", f"--trace={trace}"]
            proc = subprocess.run(
                cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
            )
            if proc.returncode != 0:
                return [f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}"]
        for trace in traces:
            errors.extend(check_file(trace))
        a, b = (pathlib.Path(t).read_bytes() for t in traces)
        if a != b:
            errors.append(f"{bench}: two same-seed runs are not byte-identical")
        else:
            print(f"{bench}: same-seed runs byte-identical ({len(a)} bytes)")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("traces", nargs="*", help="JSONL trace files to validate")
    parser.add_argument(
        "--bench",
        help="fig bench binary: run twice with --trace, validate both, "
        "require byte-identity",
    )
    args = parser.parse_args()
    if not args.traces and not args.bench:
        parser.error("give trace files and/or --bench")

    errors: list[str] = []
    if args.bench:
        errors.extend(run_bench_twice(args.bench))
    for path in args.traces:
        errors.extend(check_file(path))

    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print(f"trace_schema_check: {len(errors)} error(s)", file=sys.stderr)
        return 1
    print("trace_schema_check: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
