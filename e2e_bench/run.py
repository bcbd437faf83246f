#!/usr/bin/env python3
"""End-to-end checkpoint/restart + region-serving benchmark for eblcio.

    python3 e2e_bench/run.py --workload ckpt_sz3 --seed 1 --seconds 30 --trace 0
    python3 e2e_bench/run.py --self-test

Builds the library and the benchmark from source into .bench_build/ (the
first run compiles; later runs only check the build), runs one closed-loop
workload for --seconds, checks every output, and prints every metric by
name with its unit. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. Exits non-zero when any op
failed or a check did not hold. The full report, with the host
fingerprint, is kept under .bench_build/e2e_bench/results/.

See README.md beside this file for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import report  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2e_bench"
WORKLOADS = ("ckpt_sz3", "serve_sz2")
# A run must end within 180 s; leave room for the build check and report.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], check=True,
                   stdout=sys.stderr)
    return BUILD


def run_benchmark(args):
    binary = build() / "e2e_bench"
    deadline = time.monotonic() + RUN_TIMEOUT_S
    fingerprint = json.loads(subprocess.run(
        [str(binary), "--fingerprint"], check=True, capture_output=True,
        text=True, timeout=60).stdout)
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(results / f"{args.workload}.trace.json")]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"e2e_bench exited {proc.returncode} without a record")
        return 1
    raw = json.loads(lines[-1])
    result, problems = report.build_result(raw)

    kind = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"e2e_bench {args.workload} seed={args.seed} {kind}, "
          f"{raw['measured_s']:.1f} s measured, {result['attempted']} ops, "
          f"{result['failed']} failed")
    print("host fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    for line in report.describe(raw, result):
        print(line)
    for p in problems:
        print("CHECK FAILED: " + p)
    (results / f"{stem}.json").write_text(json.dumps(
        {"fingerprint": fingerprint, "result": result, "problems": problems},
        indent=1, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


def self_test():
    binary_dir = build()
    tests = subprocess.run([str(binary_dir / "e2e_bench_tests")])
    suite = unittest.defaultTestLoader.discover(str(HERE), pattern="test_*.py")
    ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
    return 0 if ok and tests.returncode == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the benchmark's own unit tests")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            ap.error("--workload is required")
        return run_benchmark(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        log(f"e2e_bench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
