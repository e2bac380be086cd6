#!/usr/bin/env python3
"""Correctness + perf gates on a freshly emitted bench JSON.

ci.sh runs a bench binary with --quick and then this script on the JSON it
wrote. The JSON's `benchmark` key picks the check table. The build fails
if any check of that table fails, or if a run a check requires is missing.

kernels (BENCH_kernels.json, docs/KERNELS.md):
  kernel 1   Every run carrying an `identical` field says 1: the kernels
             return the scalar path's rows. Every dispatch.
  kernel 2   micro: the block dominance kernel is not slower than the
             scalar early-abort loop (speedup >= 1.0) on the
             largest-cardinality micro config, where the gather ->
             compare -> movemask shape has the most work per byte. avx2
             only: the blocked scalar fallback is expected near parity.
  kernel 3   e2e: adaptive dispatch (scalar probe first, block evaluation
             after the promotion threshold) does not lose to the plain
             scalar path end to end (speedup >= 1.0). avx2 only.
  kernel 3b  e2e SRS phase 1: the kernel ring scan is not slower than the
             scalar ring (kernel_phase1_millis <= scalar_phase1_millis).
             avx2 only.
  The micro floor is looser than bench_kernels' own shape check (1.5x at
  cardinality 512), so a loaded host does not flake the build while a real
  regression still fails it.

shards (BENCH_shards.json, docs/SHARDING.md):
  shard 1    Every run says identical=1: the scatter/gather and pruner
             exchange reproduce the single-shard rows for every shard
             count and partitioner.
  shard 2    The 4-shard z-order run's modeled makespan speedup over one
             shard is >= 2.0x. Each shard's page cache holds a quarter of
             the base file, so four shards keep their slice resident while
             one machine thrashes; the modeled makespan
             (docs/PARALLELISM.md) gives 2.8-3.3x on quick runs and 3.5x
             on the committed full run, so 2.0x is a regression floor, not
             a flake line.
  shard 3    The 4-shard z-order run's checks per query are <= 0.78 of the
             1-shard run's. Checks are deterministic counts summed over
             every shard's local run and verify round. A flat verify reads
             0.91 (quick) and 0.80 (full); the AL-Tree verify index reads
             0.74 and 0.70.

overlays (BENCH_overlays.json, docs/OVERLAYS.md):
  overlay 1  Every run says identical=1: the incremental overlay executor
             returns the per-user patched-space rebuild's rows.
  overlay 2  The 256-user / 1%-touch run's modeled speedup over the
             per-user cold rebuild is >= 3.0x (observed 166x quick,
             72.3x on the committed full run; 35-45x and 16.8x when the
             re-checks scanned pages): a regression floor, not a flake
             line.
  overlay 3  The same run spends <= 20 re-check pair tests per sensitive
             (query, user) candidate, recheck_pair_tests / (num_queries *
             sensitive_rows). A pure function of the seed: observed 1.05
             quick and 1.06 full with the overlay index, 9.6 and 13.6
             with pruner hints over page scans, 34.0 and 60.6 with
             neither.

mutations (BENCH_mutations.json, docs/MUTABILITY.md):
  mutation 1 Every run says identical=1: Database snapshot batches return
             the rows of re-preparing the mutated dataset from scratch.
  mutation 2 The 1%-delta run's modeled query slowdown over the frozen
             dataset is <= 1.3x: a snapshot IS a prepared dataset, so
             per-query cost tracks the merged row count.

cache (BENCH_cache.json, docs/CACHING.md):
  cache 1    Every run says identical=1: the engine batch and the
             bichromatic rescans return the uncached rows at every cache
             size and worker count. Correctness only: the cache's read
             reductions and modeled speedups stay ungated.

faults (BENCH_faults.json, docs/ROBUSTNESS.md):
  fault 1    Every failover run with at least 2 replicas says
             rows_identical_to_clean=1: page-granular failover returns the
             fault-free rows. Correctness only: the wall-clock
             no-fault-overhead shape check compares median walls of
             interleaved reps, yet 5 consecutive --quick runs read
             -19.2%, 10.4%, 2.5%, 1.4% and 25.0% against its 3% line
             (a ~3 ms batch; docs/ROBUSTNESS.md), so it stays ungated.

The benches report most of these as shape checks too; this script
re-derives them from the JSON so CI fails even if a bench's stdout is
lost, and so committed BENCH_*.json files can be re-audited offline.

Usage: check_gates.py path/to/BENCH_<name>.json
"""

import json
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

Run = dict
Runs = list


@dataclass
class Check:
    name: str
    what: str
    # Runs the check applies to, given the run and all runs of the file.
    select: Callable[[Run, Runs], bool]
    # The gated value of one selected run (None = cannot be computed).
    metric: Callable[[Run, Runs], Optional[float]]
    op: str  # ">=" or "<="
    limit: float
    required: bool = True  # fail when no run is selected
    avx2_only: bool = False  # skip unless every selected run is avx2


def identical(prefix: str) -> Check:
    return Check(
        name=f"{prefix} 1",
        what="rows bit-identical to the reference",
        select=lambda r, runs: "identical" in r,
        metric=lambda r, runs: r["identical"],
        op=">=",
        limit=1,
        required=False,
    )


def failover_point(r: Run, runs: Runs) -> bool:
    return r.get("workload") == "failover" and r.get("replicas", 0) >= 2


def top_micro(r: Run, runs: Runs) -> bool:
    micro = [x for x in runs if x.get("config") == "micro"]
    return r in micro and r["cardinality"] == max(
        x["cardinality"] for x in micro
    )


def shard_point(r: Run, runs: Runs) -> bool:
    return r.get("shards") == 4 and r.get("shard_by") == "zorder"


def checks_vs_one_shard(r: Run, runs: Runs) -> Optional[float]:
    single = [x for x in runs if x.get("shards") == 1]
    if not single or not single[0].get("checks_per_query"):
        return None
    return r.get("checks_per_query", float("inf")) / single[0][
        "checks_per_query"
    ]


def overlay_point(r: Run, runs: Runs) -> bool:
    return r.get("users") == 256 and r.get("touch_pct") == 1.0


def pair_tests_per_candidate(r: Run, runs: Runs) -> Optional[float]:
    candidates = r.get("num_queries", 0) * r.get("sensitive_rows", 0)
    if candidates == 0:
        return None
    return r.get("recheck_pair_tests", 0) / candidates


CHECKS = {
    "kernels": [
        identical("kernel"),
        Check(
            name="kernel 2",
            what="micro kernel speedup at the top cardinality",
            select=top_micro,
            metric=lambda r, runs: r["speedup"],
            op=">=",
            limit=1.0,
            avx2_only=True,
        ),
        Check(
            name="kernel 3",
            what="e2e adaptive-dispatch speedup",
            select=lambda r, runs: r.get("config") == "e2e",
            metric=lambda r, runs: r["speedup"],
            op=">=",
            limit=1.0,
            required=False,
            avx2_only=True,
        ),
        Check(
            name="kernel 3b",
            what="e2e SRS phase-1 kernel ms / scalar ms",
            select=lambda r, runs: r.get("config") == "e2e"
            and r.get("algo") == "SRS",
            metric=lambda r, runs: r["kernel_phase1_millis"]
            / r["scalar_phase1_millis"],
            op="<=",
            limit=1.0,
            required=False,
            avx2_only=True,
        ),
    ],
    "shards": [
        identical("shard"),
        Check(
            name="shard 2",
            what="4-shard z-order modeled speedup over 1 shard",
            select=shard_point,
            metric=lambda r, runs: r.get("speedup_vs_1_shard", 0.0),
            op=">=",
            limit=2.0,
        ),
        Check(
            name="shard 3",
            what="4-shard z-order checks per query / 1 shard's",
            select=shard_point,
            metric=checks_vs_one_shard,
            op="<=",
            limit=0.78,
        ),
    ],
    "overlays": [
        identical("overlay"),
        Check(
            name="overlay 2",
            what="256-user 1%-touch modeled speedup over the rebuild",
            select=overlay_point,
            metric=lambda r, runs: r.get("speedup_vs_rebuild", 0.0),
            op=">=",
            limit=3.0,
        ),
        Check(
            name="overlay 3",
            what="256-user 1%-touch re-check pair tests per candidate",
            select=overlay_point,
            metric=pair_tests_per_candidate,
            op="<=",
            limit=20.0,
        ),
    ],
    "mutations": [
        identical("mutation"),
        Check(
            name="mutation 2",
            what="1%-delta modeled query slowdown over the frozen dataset",
            select=lambda r, runs: r.get("delta_pct") == 1.0,
            metric=lambda r, runs: r.get("slowdown_vs_frozen", 0.0),
            op="<=",
            limit=1.3,
        ),
    ],
    "cache": [
        Check(
            name="cache 1",
            what="rows identical at every cache size and worker count",
            select=lambda r, runs: True,
            metric=lambda r, runs: r.get("identical", 0),
            op=">=",
            limit=1,
        ),
    ],
    "faults": [
        Check(
            name="fault 1",
            what="failover with >= 2 replicas returns the fault-free rows",
            select=failover_point,
            metric=lambda r, runs: r.get("rows_identical_to_clean", 0),
            op=">=",
            limit=1,
        ),
    ],
}


def evaluate(check: Check, runs: Runs) -> Tuple[str, str]:
    """Returns (OK | FAIL | SKIP, detail) for one check over all runs."""
    selected = [r for r in runs if check.select(r, runs)]
    if not selected:
        if check.required:
            return "FAIL", "no run to check"
        return "SKIP", "no run to check"
    if check.avx2_only and any(r.get("dispatch") != "avx2" for r in selected):
        return "SKIP", "non-avx2 dispatch"
    limit = check.limit
    results = []  # (slack, value); negative slack fails
    for r in selected:
        value = check.metric(r, runs)
        if value is None:
            return "FAIL", "metric cannot be computed"
        slack = value - limit if check.op == ">=" else limit - value
        results.append((slack, value))
    slack, value = min(results)
    verdict = "OK" if slack >= 0 else "FAIL"
    return verdict, f"{value:.3g} (need {check.op} {limit:g})"


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.splitlines()[-1], file=sys.stderr)
        return 1
    path = sys.argv[1]
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"gates: cannot read {path}: {e}", file=sys.stderr)
        return 1
    benchmark = doc.get("benchmark")
    if benchmark not in CHECKS:
        print(f"gates: {path} has no check table for benchmark "
              f"'{benchmark}'", file=sys.stderr)
        return 1
    runs = doc.get("runs", [])
    if not runs:
        print(f"gates: no runs in {path}", file=sys.stderr)
        return 1

    failed = []
    for check in CHECKS[benchmark]:
        verdict, detail = evaluate(check, runs)
        print(f"gate {check.name} ({check.what}): {verdict} — {detail}")
        if verdict == "FAIL":
            failed.append(check.name)
    if failed:
        print(f"gates: FAIL — {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"gates: all {benchmark} gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
