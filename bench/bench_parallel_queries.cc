// Parallel query engine throughput: one frozen PreparedDataset, a batch of
// reverse-skyline queries fanned out over the work-stealing pool, worker
// counts 1/2/4/8. The headline metric is *modeled* throughput — each worker
// owns a private DiskView (its own spindle), so the batch's modeled makespan
// is max(summed ResponseMillis / workers, largest query)
// (docs/PARALLELISM.md). Wall-clock is reported alongside but depends on the
// host's core count. Each worker count gets a fresh engine and one batch,
// which therefore also carries the engine's one-time AL-Tree build: the
// TRS queries answer resident, and the build is the batch's largest task.
// Emits BENCH_parallel.json.
//
// Extra flags on top of bench_util's: none. --scale=1 (default) gives the
// 50k-object synthetic workload from the acceptance criterion.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "data/generators.h"
#include "exec/query_engine.h"
#include "sim/dissimilarity_matrix.h"

namespace nmrs {
namespace bench {
namespace {

void Run(int argc, char** argv) {
  Args args = Args::Parse(argc, argv, 1.0);
  const uint64_t rows = args.Rows(50000);
  const size_t num_queries = args.quick ? 16 : 64;

  Banner("Parallel query engine: batch throughput vs worker count");
  std::printf("dataset: %llu normal-distributed objects, batch of %zu "
              "queries, algorithm TRS\n",
              static_cast<unsigned long long>(rows), num_queries);

  Rng rng(args.seed);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  const std::vector<size_t> cards = {8, 8, 8, 8};
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
  auto prepared = PrepareDataset(&disk, data, Algorithm::kTRS);
  NMRS_CHECK(prepared.ok()) << prepared.status();

  RSOptions rs;
  rs.memory =
      MemoryBudget::FromFraction(0.1, prepared->stored.num_pages());

  Table table({"workers", "wall_ms", "modeled_makespan_ms", "modeled_qps",
               "speedup_vs_1"});
  JsonWriter json("parallel_queries");

  IoStats reference_io;
  double base_qps = 0;
  double speedup_at_8 = 0;
  bool io_identical = true;
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    EngineOptions opts;
    opts.num_workers = workers;
    opts.rs = rs;
    QueryEngine engine(*prepared, space, Algorithm::kTRS, opts);
    auto batch = engine.RunBatch(queries);
    NMRS_CHECK(batch.ok()) << batch.status();

    if (workers == 1) {
      reference_io = batch->total_io;
      base_qps = batch->ModeledQps();
    } else if (!(batch->total_io == reference_io)) {
      io_identical = false;
    }
    const double qps = batch->ModeledQps();
    const double speedup = base_qps > 0 ? qps / base_qps : 0;
    if (workers == 8) speedup_at_8 = speedup;

    table.AddRow({std::to_string(workers), Fmt(batch->wall_millis),
                  Fmt(batch->ModeledMakespanMillis()), Fmt(qps, 2),
                  Fmt(speedup, 2)});

    json.BeginRun();
    json.Field("workers", static_cast<uint64_t>(workers));
    json.Field("num_rows", rows);
    json.Field("num_queries", static_cast<uint64_t>(num_queries));
    json.Field("wall_millis", batch->wall_millis);
    json.Field("modeled_makespan_millis", batch->ModeledMakespanMillis());
    json.Field("queries_per_sec", qps);
    json.Field("speedup_vs_1_thread", speedup);
    EmitIoFields(&json, batch->total_io);
  }
  table.Print();

  ShapeCheck("parallel-io-worker-independent", io_identical,
             "aggregate IO identical for every worker count");
  ShapeCheck("parallel-3x-at-8-workers", speedup_at_8 >= 3.0,
             "modeled throughput at 8 workers is " + Fmt(speedup_at_8, 2) +
                 "x the 1-worker baseline (need >= 3x)");

  const char* out = "BENCH_parallel.json";
  if (json.WriteFile(out)) std::printf("wrote %s\n", out);
}

}  // namespace
}  // namespace bench
}  // namespace nmrs

int main(int argc, char** argv) {
  nmrs::bench::Run(argc, argv);
  return 0;
}
