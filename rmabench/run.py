#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage (from the root of a checkout):
  python3 rmabench/run.py --workload gram_qr|trips_server|ooc_mixed|all
                          [--seed N] [--seconds S] [--trace 0|1]
                          [--record FILE]

--seconds defaults to run_seconds in BENCHMARK.json.

The first run configures and builds the repository's `rma` library and the
benchmark into .bench_build/cmake (Release); later runs only rebuild what
changed. The benchmark's standard output is passed through: its last line is
one JSON object {"correct", "attempted", "failed", "metrics"}. --trace 1
prints the per-layer metrics instead of the end-to-end ones and writes a
Chrome trace-event file under .bench_build/work. --workload all runs every
workload in turn and ends with a summary table. --record appends one JSON
line per run ({"workload", "seed", "trace", "exit", "result"}; result is
null when the run printed none) for compare.py.

Exit status: the benchmark's (non-zero on any wrong result), or 2 when the
repository sources are missing or the build fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
WORK = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD, "rma_e2e_bench")
WORKLOADS = ["gram_qr", "trips_server", "ooc_mixed"]
# A run measures --seconds plus set-up, references and warm-up; a run that
# takes this long has hung.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no repository sources (CMakeLists.txt, src/) under {ROOT}")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "rma_e2e_bench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_one(workload, seed, seconds, trace):
    """Runs the benchmark once; returns (exit code, stdout text)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", WORK]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def last_json(text):
    lines = text.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", help="append one JSON line per run here")
    args = ap.parse_args()

    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    summary = []
    for w in workloads:
        code, out = run_one(w, args.seed, args.seconds, args.trace)
        result = last_json(out)
        if args.workload == "all":
            print(f"== {w}")
        # The benchmark's own output, its JSON object last.
        sys.stdout.write(out)
        sys.stdout.flush()
        if code != 0 or result is None:
            status = code or 1
        if result is not None:
            summary.append((w, result))
        if args.record:
            with open(args.record, "a") as f:
                f.write(json.dumps({"workload": w, "seed": args.seed,
                                    "trace": args.trace, "exit": code,
                                    "result": result}) + "\n")
    if args.workload == "all":
        print("== summary")
        for w, result in summary:
            print(f"{w}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    sys.exit(status)


if __name__ == "__main__":
    main()
