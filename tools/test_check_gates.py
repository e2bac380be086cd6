#!/usr/bin/env python3
"""Self-test of tools/check_gates.py against the committed bench JSONs.

Every committed BENCH_{kernels,shards,overlays,mutations,cache,faults}.json
must pass its gates. Then, for each of the 15 checks, a copy of the matching
JSON is doctored to violate that check alone: the gate must exit 1 and name
that check, and only that check, as failed.

Usage: python3 tools/test_check_gates.py  (exit 0 = all cases pass)
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE = os.path.join(REPO, "tools", "check_gates.py")


def first(runs, **match):
    for r in runs:
        if all(r.get(k) == v for k, v in match.items()):
            return r
    raise LookupError(f"no run with {match}")


def top_micro(runs):
    micro = [r for r in runs if r.get("config") == "micro"]
    top = max(r["cardinality"] for r in micro)
    return next(r for r in micro if r["cardinality"] == top)


def set_field(pick, field, value):
    def doctor(runs):
        pick(runs)[field] = value
    return doctor


def slow_srs_phase1(runs):
    r = first(runs, config="e2e", algo="SRS")
    r["kernel_phase1_millis"] = 2 * r["scalar_phase1_millis"]


def shard_checks_at_one_shard(runs):
    base = first(runs, shards=1)["checks_per_query"]
    first(runs, shards=4, shard_by="zorder")["checks_per_query"] = base


def overlay_pair_tests(runs):
    r = first(runs, users=256, touch_pct=1.0)
    r["recheck_pair_tests"] = 21 * r["num_queries"] * r["sensitive_rows"]


# check name -> (committed JSON, doctor that violates only that check)
CASES = {
    "kernel 1": ("kernels", set_field(
        lambda runs: first(runs, config="e2e", algo="TRS"), "identical", 0)),
    "kernel 2": ("kernels", set_field(top_micro, "speedup", 0.9)),
    "kernel 3": ("kernels", set_field(
        lambda runs: first(runs, config="e2e", algo="TRS"), "speedup", 0.9)),
    "kernel 3b": ("kernels", slow_srs_phase1),
    "shard 1": ("shards", set_field(
        lambda runs: first(runs, shards=2), "identical", 0)),
    "shard 2": ("shards", set_field(
        lambda runs: first(runs, shards=4, shard_by="zorder"),
        "speedup_vs_1_shard", 1.9)),
    "shard 3": ("shards", shard_checks_at_one_shard),
    "overlay 1": ("overlays", set_field(
        lambda runs: first(runs, users=16), "identical", 0)),
    "overlay 2": ("overlays", set_field(
        lambda runs: first(runs, users=256, touch_pct=1.0),
        "speedup_vs_rebuild", 2.9)),
    "overlay 3": ("overlays", overlay_pair_tests),
    "mutation 1": ("mutations", set_field(
        lambda runs: first(runs, delta_pct=5.0), "identical", 0)),
    "mutation 2": ("mutations", set_field(
        lambda runs: first(runs, delta_pct=1.0), "slowdown_vs_frozen", 1.31)),
    "cache 1": ("cache", set_field(
        lambda runs: first(runs, workload="bichromatic-rescan", cache_pct=25),
        "identical", 0)),
    "fault 1": ("faults", set_field(
        lambda runs: first(runs, workload="failover", replicas=2),
        "rows_identical_to_clean", 0)),
}


def run_gate(path):
    proc = subprocess.run([sys.executable, GATE, path], capture_output=True,
                          text=True)
    failed = [line.split(" (")[0][len("gate "):]
              for line in proc.stdout.splitlines()
              if line.startswith("gate ") and ": FAIL" in line]
    return proc.returncode, failed, proc.stdout + proc.stderr


def main():
    problems = []
    docs = {}
    for name in ("kernels", "shards", "overlays", "mutations", "cache",
                 "faults"):
        path = os.path.join(REPO, f"BENCH_{name}.json")
        with open(path) as f:
            docs[name] = json.load(f)
        code, failed, out = run_gate(path)
        if code != 0 or failed:
            problems.append(f"committed BENCH_{name}.json fails:\n{out}")

    with tempfile.TemporaryDirectory() as tmp:
        for check, (name, doctor) in CASES.items():
            doc = copy.deepcopy(docs[name])
            doctor(doc["runs"])
            path = os.path.join(tmp, f"BENCH_{name}.json")
            with open(path, "w") as f:
                json.dump(doc, f)
            code, failed, out = run_gate(path)
            if code != 1 or failed != [check]:
                problems.append(f"{check}: exit {code}, failed {failed}, "
                                f"want exit 1 naming only '{check}':\n{out}")

    for p in problems:
        print(p, file=sys.stderr)
    print(f"check_gates self-test: {len(CASES)} doctored cases, "
          f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
