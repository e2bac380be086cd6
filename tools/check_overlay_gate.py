#!/usr/bin/env python3
"""Correctness + perf gate on a freshly emitted BENCH_overlays.json.

ci.sh runs `bench_overlays --quick` and then this script. The build fails
if any of these hold:

  1. Any run says identical=0 — the incremental overlay executor (base
     run + classification + sensitive-row re-checks) returned different
     rows than rebuilding that user's patched SimilaritySpace and running
     the full algorithm. Bit-identity to the rebuild is the overlay
     layer's core contract (docs/OVERLAYS.md), so this gate has no
     threshold and applies to every (users, touch) config.
  2. The 256-user / 1%-touch run's modeled speedup over the per-user cold
     rebuild is below 3.0x. At that point the rebuild baseline pays 256
     cold scans plus 256 full query batches while the incremental path
     pays one base run plus grouped re-checks over ~30% of rows, so the
     deterministic cost model lands far above 3x on both quick and full
     runs (observed ~80x quick); 3.0x is a regression floor, not a flake
     line.
  3. The 256-user / 1%-touch run spends more than 20 re-check pair tests
     per sensitive (query, user) candidate: recheck_pair_tests /
     (num_queries * sensitive_rows). Each candidate first tests the base
     pruner its query's hint pass found, and a 1% delta rarely defeats
     it, so the count is low and exact (a pure function of the seed, not
     of timing or the worker count). Observed 9.6 quick and 13.6 full;
     without the hints every candidate searches from the first page,
     which measured 34.0 quick and 60.6 full. A rise past 20 means the
     hints stopped working.

The bench itself reports the same two conditions as shape checks; this
script re-derives them from the JSON so CI fails even if the bench's
stdout is lost, and so the committed BENCH_overlays.json can be
re-audited offline.

Usage: check_overlay_gate.py [path/to/BENCH_overlays.json]
"""

import json
import sys

SPEEDUP_THRESHOLD = 3.0
PAIR_TESTS_PER_CANDIDATE_CEILING = 20.0
GATED_USERS = 256
GATED_TOUCH_PCT = 1.0


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_overlays.json"
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"overlay-gate: cannot read {path}: {e}", file=sys.stderr)
        return 1

    runs = doc.get("runs", [])
    if not runs:
        print(f"overlay-gate: no runs in {path}", file=sys.stderr)
        return 1
    failures = []

    # 1. Correctness: every run must reproduce the per-user rebuild rows.
    for r in runs:
        if r.get("identical") == 0:
            failures.append(
                f"identical=0 at users={r.get('users')} "
                f"touch_pct={r.get('touch_pct')}"
            )
    if not failures:
        print(f"overlay-gate: bit-identity OK across {len(runs)} runs")

    # 2. Modeled speedup at the gated multi-tenant point.
    gated = [
        r
        for r in runs
        if r.get("users") == GATED_USERS
        and r.get("touch_pct") == GATED_TOUCH_PCT
    ]
    if not gated:
        print(
            f"overlay-gate: no users={GATED_USERS} "
            f"touch_pct={GATED_TOUCH_PCT} run in {path}",
            file=sys.stderr,
        )
        return 1
    worst = min(gated, key=lambda r: r.get("speedup_vs_rebuild", 0.0))
    speedup = worst.get("speedup_vs_rebuild", 0.0)
    ok = speedup >= SPEEDUP_THRESHOLD
    print(
        f"overlay-gate: speedup {'OK' if ok else 'FAIL'} — "
        f"users={GATED_USERS} touch_pct={GATED_TOUCH_PCT} "
        f"rows={worst.get('num_rows')} queries={worst.get('num_queries')} "
        f"speedup={speedup:.2f} (need >= {SPEEDUP_THRESHOLD:.1f})"
    )
    if not ok:
        failures.append(f"256-user modeled speedup {speedup:.2f}")

    # 3. Re-check work per sensitive candidate at the same point.
    worst = max(
        gated,
        key=lambda r: r.get("recheck_pair_tests", 0)
        / max(1, r.get("num_queries", 0) * r.get("sensitive_rows", 0)),
    )
    candidates = worst.get("num_queries", 0) * worst.get("sensitive_rows", 0)
    if candidates == 0:
        print(
            f"overlay-gate: no sensitive candidates at users={GATED_USERS} "
            f"touch_pct={GATED_TOUCH_PCT}",
            file=sys.stderr,
        )
        return 1
    per_candidate = worst.get("recheck_pair_tests", 0) / candidates
    ok = per_candidate <= PAIR_TESTS_PER_CANDIDATE_CEILING
    print(
        f"overlay-gate: re-check work {'OK' if ok else 'FAIL'} — "
        f"users={GATED_USERS} touch_pct={GATED_TOUCH_PCT} "
        f"pair_tests/candidate={per_candidate:.2f} "
        f"(need <= {PAIR_TESTS_PER_CANDIDATE_CEILING:.1f})"
    )
    if not ok:
        failures.append(
            f"256-user re-check pair tests per candidate {per_candidate:.2f}"
        )

    if failures:
        print("overlay-gate: FAIL — " + "; ".join(failures), file=sys.stderr)
        return 1
    print("overlay-gate: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
