#!/usr/bin/env python3
"""Runs one workload of the repository's performance benchmark.

    python3 perfbench/run.py --workload compile_cold --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The script builds the `perfbench` binary
(perfbench/CMakeLists.txt, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset, runs the workload, and
prints two lines: an informational JSON object ({"info": ...}: machine,
load average, schedule digest, the workload's own metric names), then the
result {"correct", "attempted", "failed", "metrics"}. It exits 1 when any
correctness check failed and 2 when the benchmark cannot run at all.
perfbench/README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("compile_cold", "sweep", "serve_hot", "serve_churn")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, what, timeout):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        fail(f"{what} failed (exit {proc.returncode})")


def build(build_dir, jobs):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT}/src; run from the root "
             "of a full checkout")
    if not (build_dir / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"], "cmake configure", 300)
    run_quiet(["cmake", "--build", str(build_dir), "-j", str(jobs)],
              "cmake build", 880)
    binary = build_dir / "perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def declared_metrics():
    """End-to-end and per-layer metric names from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    nproc = os.cpu_count() or 1
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    binary = build(build_dir, nproc)
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)

    load_before = os.getloadavg()[0]
    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--tmp", str(tmp)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    load_after = os.getloadavg()[0]
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result (exit {proc.returncode})")
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    if args.trace:
        metrics["machine.load_before"] = {"value": load_before, "unit": "load"}
        metrics["machine.load_after"] = {"value": load_after, "unit": "load"}
    end_to_end, per_layer = declared_metrics()
    expected = per_layer if args.trace else end_to_end
    if set(metrics) != expected:
        fail(f"metric set differs from BENCHMARK.json: missing "
             f"{sorted(expected - set(metrics))}, extra "
             f"{sorted(set(metrics) - expected)}")

    info = dict(result["info"], workload=args.workload, trace=args.trace,
                load_before=load_before, load_after=load_after)
    print(json.dumps({"info": info}, sort_keys=True))
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
