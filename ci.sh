#!/usr/bin/env bash
# CI entry point, thirteen stages (docs/ROBUSTNESS.md covers asan/chaos/
# replica/11, docs/KERNELS.md covers 6-7, docs/SHARDING.md covers 8,
# docs/MUTABILITY.md covers 10, docs/CACHING.md covers 11, EXPERIMENTS.md
# covers 12):
#   1. plain   — RelWithDebInfo build with warnings as errors (-Werror)
#                + full ctest suite
#   2. tsan    — ThreadSanitizer build of the gtest-free concurrency
#                stress binary (tests/exec/stress_test.cc), including the
#                concurrent replica-failover / shared-pool stress, and of
#                resident_trs, whose 3-thread runs split the tree's leaves
#                into chunks of whole pruner-memo blocks
#   3. asan    — Address+UBSan build of the gtest-free binaries; the fault
#                path exercises checksum verification, retry loops and
#                quarantine under instrumentation, altree_identity
#                checks the AL-Tree's leaf-arena offsets node for node,
#                exact_search_sweep runs the exact numeric index
#                search and the Alg. 5 prune against brute force,
#                resident_trs checks the engine's resident TRS
#                against sequential TRS, and
#                run_collapse_sweep checks the kernels' run walk (SRS,
#                T-SRS, BRS; duplicate-heavy, sparse-duplicate and
#                all-distinct data) against the scalar loops, and
#                segment_assembly checks phase-1 batches assembled from
#                page segments against a build over the concatenated
#                rows, field by field, snapshot_identity checks
#                snapshots after every step of random mutation histories
#                against a database opened over a mirror, and
#                candidate_column_sweep checks every candidate column of
#                overlaid distance tables against the overlay and the
#                table-backed prune against the patched space, and
#                overlay_parse_fuzz checks the overlay text parser
#                against the iostream parser it replaced on pinned edge
#                cases and a seeded corpus of mutated texts, and csv_fuzz
#                feeds the CSV dataset and matrix readers seeded garbage
#                and mutated files
#   4. chaos   — full 500-config fault-injection soak on the plain build
#                (a 25-config slice already ran inside stage 1's ctest)
#   5. replica — chaos sweep restricted to multi-replica configs: one
#                faulted (sometimes dead) replica out of 2..3, where
#                page-granular failover must recover every query
#   6. nosimd  — NMRS_NO_SIMD build + full ctest: the portable scalar lane
#                evaluators must pass everything the SIMD build passes
#   7. perf    — bench_kernels --quick on the plain build, then
#                tools/check_gates.py fails the run if the kernel rows
#                differ from the scalar path's, or (avx2 dispatch) the
#                kernel is slower than the scalar loop at the largest
#                cardinality, or the e2e adaptive path or SRS phase 1 is
#                slower than scalar
#   8. shards  — bench_shards --quick, then tools/check_gates.py
#                fails the run if sharded results are not bit-identical to
#                single-shard, the 4-shard modeled speedup drops
#                below 2.0x on the scan-heavy workload, or the 4-shard
#                checks per query exceed 0.78 of the 1-shard run's
#   9. overlays— bench_overlays --quick, then tools/check_gates.py
#                fails the run if incremental overlay results are not
#                bit-identical to the per-user patched-space rebuild, the
#                modeled speedup at 256 users / 1% touch drops below 3.0x,
#                or that point spends more than 20 re-check pair tests per
#                sensitive (query, user) candidate
#  10. mutations— bench_mutations --quick, then
#                tools/check_gates.py fails the run if Database
#                snapshot queries are not bit-identical to re-preparing
#                the mutated dataset from scratch or the modeled query
#                slowdown at a 1% delta exceeds 1.3x; plus an nmrs_cli
#                serve smoke over a scripted mutation workload
#  11. cache+faults— bench_cache --quick and bench_faults --quick, then
#                tools/check_gates.py fails the run if any cache size or
#                worker count changes the rows, or a failover run with at
#                least 2 replicas does not return the fault-free rows
#                (correctness only; their wall-clock shape checks stay
#                ungated)
#  12. paper  — the 13 paper benches (EXPERIMENTS.md) at --quick: each
#                exits non-zero when one of its SHAPE-CHECKs that compares
#                counts, IO, survivors or result sets reads VIOLATED; the
#                checks that compare wall times only print
#  13. perfbench— python3 tools/test_check_gates.py (the committed bench
#                JSONs pass the gates, and a copy doctored to violate any
#                one check fails exactly that check), then python3
#                perfbench/test_perfbench.py: every workload of the
#                repository benchmark at its tiny size, which checks
#                answers against independent paths (overlay answers
#                against the per-user rebuild), so a src/ change that
#                breaks the benchmark fails here
# Sanitizer builds are Debug so NMRS_DCHECKs are active, and only build
# gtest-free targets to keep every instrumented frame inside nmrs code.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc)"

echo "=== plain build (-Werror) + tests ==="
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror
cmake --build build -j"${JOBS}"
ctest --test-dir build --output-on-failure -j"${JOBS}"

echo "=== ThreadSanitizer build (exec_stress + resident_trs) ==="
cmake -B build-tsan -S . -DNMRS_TSAN=ON -DCMAKE_BUILD_TYPE=Debug
cmake --build build-tsan -j"${JOBS}" --target exec_stress \
  --target resident_trs
./build-tsan/tests/exec_stress
./build-tsan/tests/resident_trs

echo "=== Address+UBSan build (exec_stress + chaos_soak slice + altree_identity + exact_search_sweep: index search and prune + resident_trs + run_collapse_sweep + segment_assembly + snapshot_identity + candidate_column_sweep + overlay_parse_fuzz + csv_fuzz) ==="
cmake -B build-asan -S . -DNMRS_ASAN=ON -DCMAKE_BUILD_TYPE=Debug
cmake --build build-asan -j"${JOBS}" --target exec_stress --target chaos_soak \
  --target altree_identity --target exact_search_sweep --target resident_trs \
  --target run_collapse_sweep --target segment_assembly \
  --target snapshot_identity --target candidate_column_sweep \
  --target overlay_parse_fuzz --target csv_fuzz
./build-asan/tests/exec_stress
./build-asan/tests/chaos_soak --configs=50 --mutations=10
./build-asan/tests/altree_identity
./build-asan/tests/exact_search_sweep
./build-asan/tests/resident_trs
./build-asan/tests/run_collapse_sweep
./build-asan/tests/segment_assembly
./build-asan/tests/snapshot_identity
./build-asan/tests/candidate_column_sweep
./build-asan/tests/overlay_parse_fuzz
./build-asan/tests/csv_fuzz

echo "=== chaos soak (full 500-config sweep + WAL/compaction faults) ==="
./build/tests/chaos_soak --configs=500 --mutations=100

echo "=== replica chaos sweep (multi-replica failover contract) ==="
./build/tests/chaos_soak --configs=150 --min-replicas=2

echo "=== NMRS_NO_SIMD build + tests (portable lane evaluators) ==="
cmake -B build-nosimd -S . -DNMRS_NO_SIMD=ON
cmake --build build-nosimd -j"${JOBS}"
ctest --test-dir build-nosimd --output-on-failure -j"${JOBS}"

echo "=== kernel perf-sanity gate (bench_kernels --quick) ==="
(cd build && ./bench/bench_kernels --quick)
python3 tools/check_gates.py build/BENCH_kernels.json

echo "=== shard correctness + speedup gate (bench_shards --quick) ==="
(cd build && ./bench/bench_shards --quick)
python3 tools/check_gates.py build/BENCH_shards.json

echo "=== overlay correctness + speedup gate (bench_overlays --quick) ==="
(cd build && ./bench/bench_overlays --quick)
python3 tools/check_gates.py build/BENCH_overlays.json

echo "=== mutation correctness + slowdown gate (bench_mutations --quick) ==="
(cd build && ./bench/bench_mutations --quick)
python3 tools/check_gates.py build/BENCH_mutations.json
SERVE_DIR="$(mktemp -d)"
trap 'rm -rf "${SERVE_DIR}"' EXIT
./build/tools/nmrs_cli generate --rows=2000 --cards=8,10,6 \
  --out="${SERVE_DIR}/data.csv" --matrices="${SERVE_DIR}/m" --seed=5
printf 'query 3,4,2\ninsert 3,4,2\ndelete 0\nquery 3,4,2\ncompact\nquery 3,4,2\nstats\n' \
  > "${SERVE_DIR}/workload.txt"
./build/tools/nmrs_cli serve --data="${SERVE_DIR}/data.csv" \
  --matrices="${SERVE_DIR}/m" --script="${SERVE_DIR}/workload.txt"

echo "=== cache + failover correctness gates (bench_cache, bench_faults --quick) ==="
(cd build && ./bench/bench_cache --quick && ./bench/bench_faults --quick)
python3 tools/check_gates.py build/BENCH_cache.json
python3 tools/check_gates.py build/BENCH_faults.json

echo "=== paper count claims (13 paper benches --quick) ==="
for bench in running_example fig03_08_real_memory fig09_10_synth_memory \
    fig11_13_dataset_size fig14_16_values_per_attr fig17_18_num_attrs \
    fig19_attr_subsets preprocessing_sort numeric_discretization \
    metric_baseline rnn_union ablation_trs streaming; do
  (cd build && "./bench/bench_${bench}" --quick)
done

echo "=== gate self-test + repository benchmark smoke (perfbench tiny size) ==="
python3 tools/test_check_gates.py
python3 perfbench/test_perfbench.py

echo "ci: all ok"
