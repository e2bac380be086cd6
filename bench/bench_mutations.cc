// Mutable-dataset serving cost (docs/MUTABILITY.md): one base dataset
// opened as an nmrs::Database, a seeded stream of inserts/deletes grows a
// delta segment, and a TRS batch is answered two ways:
//
//   snapshot — Database::Snapshot materializes base+delta once per epoch
//              as a streamed 2-run merge, then the batch runs over the
//              pinned state;
//   rebuild  — the cold oracle: append the same mutations to an in-memory
//              Dataset, PrepareDataset from scratch, and run the batch on
//              a standalone QueryEngine.
//
// The rebuild doubles as the correctness oracle: every query's row set
// from the snapshot path is checked bit-identical to the rebuild's, and
// the per-config `identical` flag lands in the JSON where
// tools/check_gates.py re-audits it. The gate also holds the
// modeled query slowdown at a 1% delta to <= 1.3x of the frozen-dataset
// baseline — the serving claim: pinning a snapshot costs one incremental
// merge, after which queries behave as if the dataset had always been
// frozen at the merged content. The gated ratio is built from the
// deterministic IO cost model over the batch's charged page IO (identical
// across runs, worker counts and machine load), not from wall time or the
// assignment-dependent per-worker makespan.
//
// Sweeps the delta fraction in {0%, 0.1%, 1%, 5%} and emits
// BENCH_mutations.json. Extra flags on top of bench_util's: none.
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/timer.h"
#include "data/generators.h"
#include "db/database.h"
#include "storage/io_stats.h"
#include "sim/dissimilarity_matrix.h"

namespace nmrs {
namespace bench {
namespace {

// In-memory mirror of the mutation history: base rows in id order, live
// inserts in insert order, deletes erased in place — exactly the logical
// row order a Database snapshot materializes.
struct Mirror {
  struct Row {
    uint64_t key;
    std::vector<ValueId> values;
  };
  std::vector<Row> rows;

  Dataset Rebuild(const Schema& schema) const {
    Dataset merged(schema);
    for (const Row& row : rows) merged.AppendRow(row.values, {});
    return merged;
  }
};

void Run(int argc, char** argv) {
  Args args = Args::Parse(argc, argv, 0.2);
  const uint64_t rows = args.Rows(50000);
  const size_t num_queries = args.quick ? 4 : 12;
  constexpr size_t kWorkers = 4;

  Banner("Mutable datasets: epoch snapshots vs from-scratch re-preparation");
  std::printf("dataset: %llu normal-distributed objects over 4 attributes, "
              "batch of %zu TRS queries, %zu workers\n",
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

  DatabaseOptions dbopts;
  dbopts.algo = Algorithm::kTRS;
  dbopts.engine.num_workers = kWorkers;

  Table table({"delta_pct", "mutations", "snap_ms", "reprep_ms", "io_model_ms",
               "slowdown", "compact_ms", "identical"});
  JsonWriter json("mutations");

  bool identical_everywhere = true;
  double frozen_modeled_ms = 0;
  double slowdown_at_gate = 0;

  const double delta_pcts[] = {0.0, 0.1, 1.0, 5.0};
  for (double delta_pct : delta_pcts) {
    auto db = Database::Open(data, space, dbopts);
    NMRS_CHECK(db.ok()) << db.status();

    Mirror mirror;
    mirror.rows.reserve(rows);
    for (RowId r = 0; r < data.num_rows(); ++r) {
      mirror.rows.push_back({r, data.GetObject(r).values});
    }

    // Seed per config so adding a config never reshuffles another's
    // mutation stream. 1/3 deletes, 2/3 inserts of fresh random rows.
    const uint64_t mutations =
        static_cast<uint64_t>(static_cast<double>(rows) * delta_pct / 100.0);
    Rng mrng(args.seed + static_cast<uint64_t>(delta_pct * 1000) + 17);
    uint64_t inserts = 0, deletes = 0;
    for (uint64_t m = 0; m < mutations; ++m) {
      if (!mirror.rows.empty() && mrng.Uniform(3) == 0) {
        const size_t victim = mrng.Uniform(mirror.rows.size());
        NMRS_CHECK((*db)->Delete(mirror.rows[victim].key).ok());
        mirror.rows.erase(mirror.rows.begin() +
                          static_cast<ptrdiff_t>(victim));
        ++deletes;
      } else {
        std::vector<ValueId> values(cards.size());
        for (size_t a = 0; a < cards.size(); ++a) {
          values[a] = static_cast<ValueId>(mrng.Uniform(cards[a]));
        }
        auto key = (*db)->Insert(values);
        NMRS_CHECK(key.ok()) << key.status();
        mirror.rows.push_back({*key, std::move(values)});
        ++inserts;
      }
    }

    // Snapshot path: one incremental merge pins the epoch, then the batch.
    auto snap = (*db)->Snapshot();
    NMRS_CHECK(snap.ok()) << snap.status();
    const double snap_ms = snap->build_millis();
    auto got = snap->RunBatch(queries);
    NMRS_CHECK(got.ok()) << got.status();
    NMRS_CHECK(got->ok()) << got->first_error();

    // Cold oracle: re-prepare the merged dataset and run standalone.
    Dataset merged = mirror.Rebuild(data.schema());
    SimulatedDisk disk;
    Timer reprep_timer;
    auto prepared =
        PrepareDataset(&disk, merged, dbopts.algo, dbopts.prepare);
    const double reprep_ms = reprep_timer.ElapsedMillis();
    NMRS_CHECK(prepared.ok()) << prepared.status();
    auto want = QueryEngine(*prepared, space, dbopts.algo, dbopts.engine)
                    .RunBatch(queries);
    NMRS_CHECK(want.ok()) << want.status();
    NMRS_CHECK(want->ok()) << want->first_error();

    bool identical = true;
    for (size_t q = 0; q < queries.size(); ++q) {
      if (got->results()[q].rows != want->results[q].rows) identical = false;
    }
    identical_everywhere = identical_everywhere && identical;

    const double modeled_ms = IoCostModel{}.EstimateMillis(got->total_io());
    if (delta_pct == 0.0) frozen_modeled_ms = modeled_ms;
    const double slowdown =
        frozen_modeled_ms > 0 ? modeled_ms / frozen_modeled_ms : 0;
    if (delta_pct == 1.0) slowdown_at_gate = slowdown;

    // Compaction folds the delta into a new generation; afterwards
    // Snapshot() is free again (the base generation itself).
    Timer compact_timer;
    NMRS_CHECK((*db)->Compact().ok());
    const double compact_ms = compact_timer.ElapsedMillis();

    table.AddRow({Fmt(delta_pct, 1), std::to_string(mutations),
                  Fmt(snap_ms, 2), Fmt(reprep_ms, 2), Fmt(modeled_ms),
                  Fmt(slowdown, 3), Fmt(compact_ms, 2),
                  identical ? "yes" : "NO"});

    json.BeginRun();
    json.Field("delta_pct", delta_pct);
    json.Field("num_rows", rows);
    json.Field("mutations", mutations);
    json.Field("inserts", inserts);
    json.Field("deletes", deletes);
    json.Field("workers", static_cast<uint64_t>(kWorkers));
    json.Field("num_queries", static_cast<uint64_t>(num_queries));
    json.Field("identical", static_cast<uint64_t>(identical ? 1 : 0));
    json.Field("snapshot_build_millis", snap_ms);
    json.Field("reprepare_millis", reprep_ms);
    json.Field("batch_modeled_io_millis", modeled_ms);
    json.Field("slowdown_vs_frozen", slowdown);
    json.Field("compact_millis", compact_ms);
    json.Field("wall_millis", got->wall_millis());
    EmitIoFields(&json, got->total_io());
  }

  table.Print();

  ShapeCheck("mutation-rows-bit-identical", identical_everywhere,
             "snapshot rows identical to from-scratch re-preparation "
             "at every delta size");
  ShapeCheck("mutation-query-slowdown", slowdown_at_gate <= 1.3,
             "modeled query slowdown at 1% delta = " +
                 Fmt(slowdown_at_gate, 3) + "x (want <= 1.3x)");

  json.WriteFile("BENCH_mutations.json");
}

}  // namespace
}  // namespace bench
}  // namespace nmrs

int main(int argc, char** argv) {
  nmrs::bench::Run(argc, argv);
  return 0;
}
