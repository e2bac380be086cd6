// Multi-tenant overlay throughput (docs/OVERLAYS.md): one frozen
// PreparedDataset, K users who each patch the shared dissimilarity
// matrices with a sparse MatrixOverlay, a BRS batch answered two ways:
//
//   incremental — QueryEngine::RunOverlayBatch: one base run, one
//                 classification pass splitting rows into
//                 overlay-invariant vs overlay-sensitive, the build of one
//                 read-only AL-Tree of the file, a per-query search
//                 recording each sensitive row's base pruner, then grouped
//                 re-checks of only the sensitive rows, each decided by its
//                 hint or one search of the tree;
//   rebuild     — the cold baseline: per user, materialize the patched
//                 SimilaritySpace and run the full batch from scratch,
//                 modeled cost summed over users.
//
// The rebuild runs double as the correctness oracle: every (query, user)
// row set from the incremental path is checked bit-identical to that
// user's rebuild, and the per-config `identical` flag lands in the JSON
// where tools/check_gates.py re-audits it. The gate also holds the
// modeled speedup at 256 users / 1% touch to >= 3x — the headline
// multi-tenancy claim: incremental cost is one base run plus re-check
// work proportional to the touched fraction, not K full runs.
//
// Sweeps K in {1, 16, 256} x touch rate in {0.1%, 1%, 10%} and emits
// BENCH_overlays.json. Extra flags on top of bench_util's: none.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "data/generators.h"
#include "exec/query_engine.h"
#include "sim/dissimilarity_matrix.h"
#include "sim/matrix_overlay.h"

namespace nmrs {
namespace bench {
namespace {

void Run(int argc, char** argv) {
  Args args = Args::Parse(argc, argv, 0.2);
  const uint64_t rows = args.Rows(50000);
  const size_t num_queries = args.quick ? 4 : 12;
  constexpr size_t kWorkers = 4;

  Banner("Multi-tenant overlays: incremental re-pruning vs per-user rebuild");
  std::printf("dataset: %llu normal-distributed objects over 4 attributes, "
              "batch of %zu BRS queries, %zu workers\n",
              static_cast<unsigned long long>(rows), num_queries, kWorkers);

  Rng rng(args.seed);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  const std::vector<size_t> cards(4, 12);
  Dataset data = GenerateNormal(rows, cards, data_rng);
  SimilaritySpace space;
  for (size_t card : cards) {
    space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }
  std::vector<Object> queries;
  queries.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    queries.push_back(SampleUniformQuery(data, rng));
  }

  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, data, Algorithm::kBRS);
  NMRS_CHECK(prepared.ok()) << prepared.status();

  Table table({"users", "touch_pct", "sensitive_pct", "wall_ms",
               "modeled_ms", "rebuild_ms", "speedup", "identical"});
  JsonWriter json("overlays");

  bool identical_everywhere = true;
  double speedup_at_gate = 0;

  const size_t user_counts[] = {1, 16, 256};
  const double touch_pcts[] = {0.1, 1.0, 10.0};
  for (size_t users : user_counts) {
    for (double touch_pct : touch_pcts) {
      // Seed per config so adding a config never reshuffles another's
      // overlays.
      Rng orng(args.seed + users * 1000003 +
               static_cast<uint64_t>(touch_pct * 1000));
      std::vector<MatrixOverlay> overlays;
      overlays.reserve(users);
      for (size_t u = 0; u < users; ++u) {
        overlays.push_back(MakeRandomOverlay(space, orng, touch_pct / 100.0));
      }
      std::vector<const MatrixOverlay*> ptrs;
      for (const auto& o : overlays) ptrs.push_back(&o);

      EngineOptions opts;
      opts.num_workers = kWorkers;
      // Whole file resident after the first scan: the comparison is then
      // "one cold scan + sensitive-row re-checks" vs "K cold scans + K
      // full query batches", the multi-tenant contrast under test.
      opts.cache_pages = prepared->stored.num_pages() + 2;

      QueryEngine engine(*prepared, space, Algorithm::kBRS, opts);
      auto ob = engine.RunOverlayBatch(queries, ptrs);
      NMRS_CHECK(ob.ok()) << ob.status();
      NMRS_CHECK(ob->ok()) << ob->first_error();

      // Cold per-user rebuild: baseline cost and correctness oracle.
      double rebuild_ms = 0;
      bool identical = true;
      for (size_t u = 0; u < users; ++u) {
        SimilaritySpace patched = overlays[u].BuildPatchedSpace();
        auto rb = QueryEngine(*prepared, patched, Algorithm::kBRS, opts)
                      .RunBatch(queries);
        NMRS_CHECK(rb.ok()) << rb.status();
        NMRS_CHECK(rb->ok()) << rb->first_error();
        rebuild_ms += rb->ModeledMakespanMillis();
        for (size_t q = 0; q < queries.size(); ++q) {
          if (rb->results[q].rows != ob->results[q][u].rows) {
            identical = false;
          }
        }
      }
      identical_everywhere = identical_everywhere && identical;

      const double makespan = ob->ModeledMakespanMillis();
      const double speedup = makespan > 0 ? rebuild_ms / makespan : 0;
      if (users == 256 && touch_pct == 1.0) speedup_at_gate = speedup;
      const uint64_t classified = ob->sensitive_rows + ob->invariant_rows;
      const double sensitive_pct =
          classified == 0 ? 0.0
                          : 100.0 * static_cast<double>(ob->sensitive_rows) /
                                static_cast<double>(classified);

      table.AddRow({std::to_string(users), Fmt(touch_pct, 1),
                    Fmt(sensitive_pct, 1), Fmt(ob->wall_millis),
                    Fmt(makespan), Fmt(rebuild_ms), Fmt(speedup, 2),
                    identical ? "yes" : "NO"});

      json.BeginRun();
      json.Field("users", static_cast<uint64_t>(users));
      json.Field("touch_pct", touch_pct);
      json.Field("workers", static_cast<uint64_t>(kWorkers));
      json.Field("num_rows", rows);
      json.Field("num_queries", static_cast<uint64_t>(num_queries));
      json.Field("identical", static_cast<uint64_t>(identical ? 1 : 0));
      json.Field("wall_millis", ob->wall_millis);
      json.Field("modeled_makespan_millis", makespan);
      json.Field("rebuild_modeled_millis", rebuild_ms);
      json.Field("speedup_vs_rebuild", speedup);
      json.Field("answers_per_sec", ob->ModeledQps());
      // The trees the overlay stages search: every shard's index.
      uint64_t index_bytes = 0;
      for (int s = 0; s < engine.num_shards(); ++s) {
        index_bytes += engine.shard_index_bytes(s);
      }
      json.Field("overlay_index_bytes", index_bytes);
      EmitOverlayFields(&json, ob->sensitive_rows, ob->invariant_rows,
                        ob->recheck_scans, ob->recheck_checks,
                        ob->recheck_pair_tests);
      EmitIoFields(&json, ob->total_io);
    }
  }

  table.Print();

  ShapeCheck("overlay-rows-bit-identical", identical_everywhere,
             "incremental rows identical to per-user rebuild everywhere");
  ShapeCheck("overlay-modeled-speedup", speedup_at_gate >= 3.0,
             "modeled speedup at 256 users / 1% touch = " +
                 Fmt(speedup_at_gate, 2) + "x (want >= 3.0x)");

  json.WriteFile("BENCH_overlays.json");
}

}  // namespace
}  // namespace bench
}  // namespace nmrs

int main(int argc, char** argv) {
  nmrs::bench::Run(argc, argv);
  return 0;
}
