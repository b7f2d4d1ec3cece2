#!/usr/bin/env python3
"""Compares two sets of benchmark runs: a parent commit and a change.

Collect alternating pairs (the parent runs first in even pairs, the change
first in odd ones), each pair on its own seed:
  python3 rmabench/compare.py collect --parent DIR --change DIR \\
      --workload gram_qr --pairs 10 --out runs/

DIR is the root of a checkout of each commit. The runs land in
runs/parent.jsonl and runs/change.jsonl (the --record format of run.py).

Report on them, metric by metric and workload by workload:
  python3 rmabench/compare.py report runs/parent.jsonl runs/change.jsonl

Before any metric, the report counts each side's runs per workload: runs,
incorrect runs (correct=false, no result, or a non-zero exit) and
failed/attempted statements. A workload on which the change has an incorrect
run, or more failed statements than the parent, is reported as FAILED: no
gain or no-regression result counts there. Metrics come only from correct
runs.

For each metric the report gives each side's median and quartiles (as
Python's statistics.quantiles(values, n=4) computes them), the change's win
share over the pairs (same workload and seed; ties count for neither side)
and a decision against the metric's bound in BENCHMARK.json:
  unresolved  fewer than 10 pairs, or the runs spread (between quartiles,
              relative to the median) wider than the bound, unless every
              change run is better than every parent run (then unchanged)
  improved    the change wins at least 9 in 10 pairs and its median is
              better than the parent's by more than the parent's spread
              between quartiles
  worse       the change's median is worse by more than the bound, and the
              spread is within the bound or every change run is worse than
              every parent run
  unchanged   otherwise
Per-layer metrics have no bound; they are reported with "-" as decision.

Exit status of report: 1 when a workload FAILED or an end-to-end metric is
worse, else 0. Exit status of collect: 1 when any run exited non-zero.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them (the
    exclusive method, which interpolates between closest ranks)."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def win_share(pairs, better):
    """Share of (parent, change) pairs the change wins; ties win nothing."""
    if not pairs:
        return 0.0
    wins = 0
    for parent, change in pairs:
        if change == parent:
            continue
        if (change < parent) == (better == "lower"):
            wins += 1
    return wins / len(pairs)


def decide(parent, change, pairs, better, bound):
    """Decision for one metric of one workload; see the module docstring."""
    if bound is None:
        return "-"
    if len(pairs) < MIN_PAIRS:
        return "unresolved"
    sign = 1 if better == "lower" else -1  # positive = worse
    p1, mp, p3 = quartiles(parent)
    _, mc, _ = quartiles(change)
    if (win_share(pairs, better) >= WIN_SHARE
            and sign * (mp - mc) > (p3 - p1)):
        return "improved"
    shift = sign * (mc - mp) / abs(mp) if mp else math.inf
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    all_worse = all(sign * (c - p) > 0 for c in change for p in parent)
    spread = max(relative_spread(parent), relative_spread(change))
    if shift > bound and (spread <= bound or all_worse):
        return "worse"
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def load_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            if line.strip():
                runs.append(json.loads(line))
    return runs


def benchmark_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def metric_specs():
    spec = benchmark_spec()
    specs = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        specs[m["name"]] = (m.get("better"), None)
    return specs


def is_correct(run):
    result = run.get("result")
    return (run.get("exit", 0) == 0 and result is not None
            and bool(result.get("correct")))


def tally(runs):
    """Per workload: [runs, incorrect runs, failed, attempted]."""
    counts = {}
    for r in runs:
        c = counts.setdefault(r["workload"], [0, 0, 0, 0])
        c[0] += 1
        c[1] += not is_correct(r)
        result = r.get("result") or {}
        c[2] += result.get("failed", 0)
        c[3] += result.get("attempted", 0)
    return counts


def report(parent_runs, change_runs, specs, out=sys.stdout):
    """Prints the run counts, then one row per metric x workload; returns
    True when the change FAILED on a workload or a metric is worse."""
    rejected = False
    parent_counts, change_counts = tally(parent_runs), tally(change_runs)
    print(f"{'workload':13s} {'side':6s} {'runs':>5s} {'incorrect':>9s} "
          f"{'failed/attempted':>18s}", file=out)
    for workload in sorted(set(parent_counts) | set(change_counts)):
        pc = parent_counts.get(workload, [0, 0, 0, 0])
        cc = change_counts.get(workload, [0, 0, 0, 0])
        for side, c in (("parent", pc), ("change", cc)):
            print(f"{workload:13s} {side:6s} {c[0]:5d} {c[1]:9d} "
                  f"{c[2]:>8d}/{c[3]:<9d}", file=out)
        if cc[0] == 0 or cc[1] > 0 or cc[2] > pc[2]:
            print(f"{workload:13s} FAILED: the change has incorrect runs or "
                  f"more failed statements than the parent", file=out)
            rejected = True

    def index(runs):
        table = {}
        for r in runs:
            if not is_correct(r):
                continue
            for name, m in r["result"]["metrics"].items():
                table.setdefault((r["workload"], name), {})[r["seed"]] = (
                    m["value"])
        return table

    parent, change = index(parent_runs), index(change_runs)
    print(f"{'workload':13s} {'metric':27s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'wins':>5s} decision", file=out)
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        better, bound = specs.get(name, (None, None))
        pv, cv = parent[key], change[key]
        seeds = sorted(set(pv) & set(cv))
        pairs = [(pv[s], cv[s]) for s in seeds]
        p = list(pv.values())
        c = list(cv.values())
        decision = decide(p, c, pairs, better, bound)
        rejected |= decision == "worse"
        wins = f"{win_share(pairs, better):.2f}" if better else "-"
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
        print(f"{workload:13s} {name:27s} {fmt(quartiles(p)):>30s} "
              f"{fmt(quartiles(c)):>30s} {wins:>5s} {decision}", file=out)
    return rejected


def collect(args):
    """Runs the pairs; returns the number of runs that exited non-zero."""
    os.makedirs(args.out, exist_ok=True)
    sides = {"parent": args.parent, "change": args.change}
    # Run length is the benchmark's, the same on both commits.
    seconds = benchmark_spec()["run_seconds"]
    bad = 0
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            cmd = [sys.executable,
                   os.path.join(sides[side], "rmabench", "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace),
                   "--record", os.path.join(os.path.abspath(args.out),
                                            side + ".jsonl")]
            code = subprocess.run(cmd, cwd=sides[side],
                                  stdout=subprocess.DEVNULL).returncode
            if code != 0:
                bad += 1
                print(f"compare.py: {side} run of {args.workload} seed "
                      f"{seed} exited with {code}", file=sys.stderr)
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run alternating parent/change pairs")
    c.add_argument("--parent", required=True)
    c.add_argument("--change", required=True)
    c.add_argument("--workload", required=True)
    c.add_argument("--pairs", type=int, default=MIN_PAIRS)
    c.add_argument("--first-seed", type=int, default=1)
    c.add_argument("--trace", type=int, choices=[0, 1], default=0)
    c.add_argument("--out", required=True)
    r = sub.add_parser("report", help="compare two sets of recorded runs")
    r.add_argument("parent")
    r.add_argument("change")
    args = ap.parse_args()
    if args.cmd == "collect":
        return 1 if collect(args) else 0
    rejected = report(load_runs(args.parent), load_runs(args.change),
                      metric_specs())
    return 1 if rejected else 0


if __name__ == "__main__":
    sys.exit(main())
