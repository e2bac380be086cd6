#!/usr/bin/env python3
"""Steadiness report for the repository benchmark (see perfbench/README.md).

    python3 perfbench/steadiness.py --runs 10 --traced 3

Runs every workload (or those given with --workloads) --runs times untraced,
each with another seed, and prints for each end-to-end metric the median,
the quartiles, min and max, and the spread: the distance between the
quartiles (statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound from BENCHMARK.json. It then makes --traced
traced runs and prints the tracing overhead: the traced median minus the
untraced median of each end-to-end metric. This is the evidence behind the
bounds in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run failed (%s seed %d): %s" %
                 (workload, seed, done.stderr.strip()[-2000:]))
    result = json.loads(lines[-1])
    prov = json.loads([l for l in lines if l.startswith("PROVENANCE ")][-1]
                      [len("PROVENANCE "):])
    if not result["correct"] or result["failed"] != 0:
        sys.exit("incorrect run (%s seed %d): %s" %
                 (workload, seed, done.stdout[-2000:]))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["_probe_ms"] = prov["host_probe_ms"]["before"]
    if trace:
        traced = [l for l in lines if l.startswith("TRACED_E2E ")]
        values = {k: v["value"] for k, v in
                  json.loads(traced[-1][len("TRACED_E2E "):]).items()}
    return values


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=3)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    if args.runs < 4:
        parser.error("--runs must be at least 4 for quartiles")

    ok = True
    for workload in args.workloads:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        seconds = spec["run_seconds"]
        runs = [run_once(workload, s, seconds, 0) for s in seeds]
        traced = [run_once(workload, s, seconds, 1)
                  for s in seeds[:args.traced]]
        print("== %s: %d runs, seeds %d..%d, %d s" %
              (workload, args.runs, seeds[0], seeds[-1], seconds))
        print("%-18s %12s %12s %12s %12s %12s %8s %6s %12s" %
              ("metric", "median", "q1", "q3", "min", "max", "spread",
               "bound", "trace_ovh"))
        for m in spec["end_to_end"]:
            vals = [r[m["name"]] for r in runs]
            q1, q3, s = spread(vals)
            med = statistics.median(vals)
            ovh = (statistics.median([t[m["name"]] for t in traced]) - med
                   if traced else float("nan"))
            gated = m["name"] != "setup_s"
            verdict = "" if not gated else (
                "ok" if s <= m["bound"] / 3 else
                "wide" if s <= m["bound"] else "FAIL")
            ok = ok and verdict != "FAIL"
            print("%-18s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %6.2f "
                  "%12.4g %s" % (m["name"], med, q1, q3, min(vals), max(vals),
                                 s, m["bound"], ovh, verdict))
        print("host probe ms before each run (diagnostic): " +
              " ".join("%.0f" % r["_probe_ms"] for r in runs))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
