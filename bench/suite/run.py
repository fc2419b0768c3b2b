#!/usr/bin/env python3
"""gridbw-bench: build the suite, run its workloads, print every metric.

    python3 bench/suite/run.py [--workload NAME] [--seed N] [--seconds S]
                               [--trace 0|1] [--quick] [--out FILE]

Each workload runs in gridbw_bench processes of its own, one at a time, so
the load comes from one process. With --trace 0 six processes, one after
another, time untraced reps for a sixth of --seconds each, and run.py
prints the end-to-end metrics of BENCHMARK.json over their pooled samples;
with --trace 1 one process runs traced reps and run.py prints the per-layer
metrics. Without --workload every workload runs, in both modes unless
--trace is given. Each metric is printed as `workload metric value unit`;
the last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. The exit code is 1 if any correctness
check failed and 2 if the suite cannot be built or run.

Every metric reports the median of its samples. The timings among the
end-to-end metrics (set-up, throughput, total time, decision latency) are
first divided by the host-speed factor gridbw_bench measured around each
sample: a fixed probe kernel's time over its time on the calibration VM. A
shared host speeds up and slows down by a third or more over minutes; the
probe slows with it, so the quotient reads as seconds at the calibration
VM's usual speed.

The suite is configured and built (Release) under $CARGO_TARGET_DIR, or
.bench_build, relative to the repository root. Spans of the traced runs are
written to spans.json next to the gridbw_bench binary; --out writes the full
result: the environment, every sample with the host-speed factors, and each
metric's median and quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
# Wall-clock allowance for all gridbw_bench processes of one workload and mode.
RUN_TIMEOUT_S = 160
# Processes per timed run. Host-speed-normalised rep times still differ by
# 10-40 % between processes of one run (memory layout, the vCPU a process
# lands on); six processes halve the run-to-run spread that three leave.
TIMED_PROCESSES = 6

# Span name -> per-layer metric holding that span's share of `run`.
SPAN_SHARES = {
    "workload.generate": "workload.generate_share",
    "service.submit": "service.submit_share",
    "service.drain": "service.drain_share",
    "heuristics.schedule": "heuristics.schedule_share",
    "core.validate": "validate.validate_share",
    "metrics.objectives": "metrics.objectives_share",
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(out_dir: Path) -> Path:
    """Configures (once) and builds gridbw_bench; exits 2 on failure."""
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "build.log"
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SUITE), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out_dir), "--target", "gridbw_bench", "-j", jobs])
    # Keep the compiler's temporary files inside the build directory too.
    tmp = out_dir / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log_path, "w", encoding="utf-8") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                log.flush()
                tail = log_path.read_text(encoding="utf-8", errors="replace")[-4000:]
                sys.stderr.write(tail + f"\nrun.py: build failed (log: {log_path})\n")
                sys.exit(2)
    return out_dir / "gridbw_bench"


def rep_settings(args) -> dict:
    """How each process sets up and repeats its workload."""
    if args.quick:
        return {"scale": 0.05, "warmup": 0, "min-reps": 1}
    return {"scale": 1, "warmup": 1, "min-reps": 2}


def run_process(binary: Path, workload: str, trace: int, args, seconds: float,
                deadline: float) -> dict:
    """Runs one workload in one mode for `seconds` and returns its raw samples."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={args.seed}", f"--trace={trace}",
           f"--seconds={seconds}"]
    cmd += [f"--{key}={value}" for key, value in rep_settings(args).items()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"run.py: {' '.join(cmd)} timed out\n")
        sys.exit(2)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(f"run.py: {' '.join(cmd)} exited {proc.returncode}\n")
        sys.exit(2)
    return json.loads(lines[-1])


def pool(raws: list[dict]) -> dict:
    """One process's output shape over several processes: lists joined,
    check tallies summed, peak RSS kept per process, the rest from the first."""
    pooled = {}
    for key, first in raws[0].items():
        values = [raw[key] for raw in raws]
        if isinstance(first, list):
            pooled[key] = [x for value in values for x in value]
        elif key in ("attempted", "failed"):
            pooled[key] = sum(values)
        elif key == "peak_rss_mb":
            pooled[key] = values
        else:
            pooled[key] = first
    if len({raw["fingerprint"] for raw in raws}) > 1:
        pooled["failed"] += raws[0]["requests"]
        pooled["failures"].append("decisions differ between processes")
    return pooled


def run_mode(binary: Path, workload: str, trace: int, args) -> dict:
    processes = 1 if trace or args.quick else TIMED_PROCESSES
    seconds = 0 if args.quick else args.seconds / processes
    deadline = time.monotonic() + RUN_TIMEOUT_S
    return pool([run_process(binary, workload, trace, args, seconds, deadline)
                 for _ in range(processes)])


def summary(samples: list[float]) -> dict:
    """Median and quartiles, as statistics.quantiles(n=4) gives them."""
    med = statistics.median(samples)
    if len(samples) < 2:
        return {"median": med, "q1": med, "q3": med, "n": len(samples)}
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(samples)}


def end_to_end_samples(raw: dict) -> dict[str, list[float]]:
    """Every timing divided by the host-speed factor measured around it."""
    n = raw["requests"]
    factors = raw["rep_host_factor"]

    def per_rep(values: list[float]) -> list[float]:
        # A rep contributes the same number of samples (latency windows) each time.
        return [v / factors[i * len(factors) // len(values)] for i, v in enumerate(values)]

    return {
        "setup_s": [s / f for s, f in zip(raw["setup_s"], raw["setup_host_factor"])],
        "req_per_s": [n * f / d for d, f in zip(raw["decide_s"], factors)],
        "total_s": per_rep(raw["total_s"]),
        "admit_p50_us": per_rep(raw["admit_p50_us"]),
        "admit_p99_us": per_rep(raw["admit_p99_us"]),
        "accept_rate": [raw["accept_rate"]],
        "resource_util": [raw["resource_util"]],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def span_layers(spans: list) -> tuple[dict[str, float], float, list[float]]:
    """Self-time share of `run` per span name, the unattributed share, and
    the duration of every `run` span. Self time = duration minus direct
    children."""
    children = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            children[parent] += end - start
    runs = [end - start for _, parent, start, end in spans if parent < 0]
    total = sum(runs)
    shares: dict[str, float] = {}
    for i, (name, _, start, end) in enumerate(spans):
        shares[name] = shares.get(name, 0.0) + (end - start - children[i]) / total
    return shares, shares.pop("run", 0.0), runs


def per_layer_samples(raw: dict) -> dict[str, list[float]]:
    n = raw["requests"]
    counters = raw["counters"]

    def counter(name: str) -> int:
        # A counter a later change deletes simply reads zero.
        return counters.get(name, 0)

    shares, unattributed, runs = span_layers(raw["spans"])
    svc = raw["service"]
    slots = raw["slots"]
    probes, fallbacks = counter("residual_index_probes"), counter("residual_index_fallbacks")
    drains = counter("window_scan_drains") + counter("window_heap_drains")
    traced = statistics.median(raw["traced_decide_s"])
    untraced = statistics.median(raw["decide_s"])
    values = {
        "workload.requests": n,
        **{metric: shares.get(span, 0.0) for span, metric in SPAN_SHARES.items()},
        "bench.unattributed_frac": unattributed,
        "admit_p999_us": raw["admit_p999_us"],
        "admit_samples": raw["admit_samples"],
        "service.live_peak": svc["live_peak"],
        "service.resident_breakpoints": svc["resident_breakpoints"],
        "service.resident_per_live":
            svc["resident_breakpoints"] / svc["live_peak"] if svc["live_peak"] else 0.0,
        "service.compactions": svc["compactions"],
        "service.breakpoints_retired": svc["breakpoints_retired"],
        "core.ledger_fits_checks": counter("ledger_fits_checks"),
        "core.ledger_fits_rejected": counter("ledger_fits_rejected"),
        "core.ledger_reservations": counter("ledger_reservations"),
        "core.residual_index_probes": probes,
        "core.residual_index_fallbacks": fallbacks,
        "core.residual_index_rebuilds": counter("residual_index_rebuilds"),
        "core.index_hit_ratio": probes / (probes + fallbacks) if probes + fallbacks else 0.0,
        "heuristics.slices": slots["slices"],
        "heuristics.skipped_slices": slots["skipped_slices"],
        "heuristics.admission_checks": slots["admission_checks"],
        "heuristics.checks_per_request": slots["admission_checks"] / n,
        "heuristics.window_scan_drains": counter("window_scan_drains"),
        "heuristics.window_heap_drains": counter("window_heap_drains"),
        "heuristics.candidates_per_drain": n / drains if drains else 0.0,
        "heuristics.reshaped": counter("reshaped"),
        "heuristics.revoked": counter("revoked"),
        "heuristics.preempted": counter("preempted"),
        "validate.assignments": raw["assignments"],
        "validate.violations": raw["violations"],
        "obs.traced_decide_s": raw["traced_decide_s"],
        "obs.overhead_frac": [traced / untraced - 1.0],
        "obs.events": raw["events"],
        "bench.run_s": runs,
    }
    return {k: v if isinstance(v, list) else [v] for k, v in values.items()}


def summarize(raw: dict, trace: int, spec: dict, workload: str) -> dict:
    """The declared metrics of one process's output, with their samples."""
    if trace:
        declared, samples = spec["per_layer"], per_layer_samples(raw)
    else:
        declared, samples = spec["end_to_end"], end_to_end_samples(raw)
    missing = [m["name"] for m in declared if m["name"] not in samples]
    if missing:
        sys.stderr.write(f"run.py: {workload} produced no value for {missing}\n")
        sys.exit(2)
    result = {
        "samples": {m["name"]: samples[m["name"]] for m in declared},
        "metrics": {m["name"]: dict(summary(samples[m["name"]]), unit=m["unit"])
                    for m in declared},
        "fingerprint": raw["fingerprint"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "error_rate": raw["failed"] / raw["attempted"],
        "failures": raw["failures"],
    }
    if not trace:
        result["host_factor"] = {"rep": raw["rep_host_factor"],
                                 "setup": raw["setup_host_factor"]}
    return result


def git_state() -> tuple[str, bool | None]:
    if not (ROOT / ".git").exists():
        return "unknown", None
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                               capture_output=True, text=True, check=True).stdout.strip()
        return head, bool(dirty)
    except (OSError, subprocess.CalledProcessError):
        return "unknown", None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def env_block(args, raw: dict) -> dict:
    commit, dirty = git_state()
    return {
        "commit": commit,
        "dirty": dirty,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": raw["compiler"],
        "build_type": raw["build_type"],
        "seed": args.seed,
        "reps": dict(rep_settings(args), seconds=args.seconds,
                     timed_processes=1 if args.quick else TIMED_PROCESSES),
    }


def parse_args(spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec.get("run_seconds", 10))
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--quick", action="store_true",
                        help="1/20 scale, 1 rep, no warm-up (smoke test)")
    parser.add_argument("--out", type=Path, help="write the full result JSON here")
    parser.add_argument("--binary", type=Path, help="use this gridbw_bench, skip the build")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    return args


def main() -> int:
    spec = load_spec()
    args = parse_args(spec)
    binary = args.binary or build(build_dir())
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    modes = [args.trace] if args.trace is not None else ([0] if args.workload else [0, 1])

    results: dict[str, dict] = {}
    spans: dict[str, list] = {}
    last = {}
    for workload in workloads:
        for trace in modes:
            raw = run_mode(binary, workload, trace, args)
            result = summarize(raw, trace, spec, workload)
            last = raw
            if trace:
                spans[workload] = raw["spans"]
            results.setdefault(workload, {})["traced" if trace else "timed"] = result
            for name, m in result["metrics"].items():
                print(f"{workload} {name} {m['median']!r} {m['unit']}", flush=True)

    attempted = sum(r["attempted"] for w in results.values() for r in w.values())
    failed = sum(r["failed"] for w in results.values() for r in w.values())
    failures = [f"{wl}: {why}" for wl, w in results.items() for r in w.values()
                for why in r["failures"]]
    for why in failures:
        sys.stderr.write(f"run.py: check failed: {why}\n")

    if spans:
        (binary.parent / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
    if args.out:
        document = {"env": env_block(args, last), "workloads": results}
        args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")

    single = len(workloads) == 1 and len(modes) == 1
    metrics = {
        (name if single else f"{wl}.{name}"): {"value": m["median"], "unit": m["unit"]}
        for wl, w in results.items() for r in w.values() for name, m in r["metrics"].items()
    }
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
