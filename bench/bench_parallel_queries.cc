// Parallel query engine throughput: one frozen PreparedDataset, a batch of
// reverse-skyline queries fanned out over the work-stealing pool, worker
// counts 1/2/4/8. The headline metric is *modeled* throughput — each worker
// owns a private DiskView (its own spindle), so the batch's modeled makespan
// is max(summed ResponseMillis / workers, largest query)
// (docs/PARALLELISM.md). Wall-clock is reported alongside but depends on the
// host's core count. Each worker count gets a fresh engine and runs the
// batch twice. The first (cold) batch carries the engine's one-time
// AL-Tree build, the batch's largest task, so it is reported on its own:
// its wall time, modeled makespan and the build's page reads. The second
// (warm) batches, whose TRS queries answer from the resident trees, give
// the throughput the table and the speedup check read: the best of five.
// A batch holds kBatchQueries queries (16 with --quick). Emits
// BENCH_parallel.json.
//
// Extra flags on top of bench_util's: none. --scale=1 (default) gives the
// 50k-object synthetic workload from the acceptance criterion.
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "data/generators.h"
#include "exec/query_engine.h"
#include "sim/dissimilarity_matrix.h"

namespace nmrs {
namespace bench {
namespace {

// Queries per batch. One warm batch at 1 worker then runs for about a
// quarter second on a 4-core x86 VM: 64 queries took 14-60 ms there, so
// scheduler jitter decided the 8-worker speedup (0.78x to 5.88x).
constexpr size_t kBatchQueries = 384;

void Run(int argc, char** argv) {
  Args args = Args::Parse(argc, argv, 1.0);
  const uint64_t rows = args.Rows(50000);
  const size_t num_queries = args.quick ? 16 : kBatchQueries;

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

  Table table({"workers", "cold_wall_ms", "cold_makespan_ms", "wall_ms",
               "modeled_makespan_ms", "modeled_qps", "speedup_vs_1"});
  JsonWriter json("parallel_queries");

  IoStats reference_io, reference_warm_io;
  double base_qps = 0;
  double speedup_at_8 = 0;
  bool io_identical = true;
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    EngineOptions opts;
    opts.num_workers = workers;
    opts.rs = rs;
    QueryEngine engine(*prepared, space, Algorithm::kTRS, opts);
    auto cold = engine.RunBatch(queries);
    NMRS_CHECK(cold.ok()) << cold.status();
    // One warm run is still at the mercy of the host scheduler: keep the
    // best of kWarmRuns.
    constexpr int kWarmRuns = 5;
    auto batch = engine.RunBatch(queries);
    NMRS_CHECK(batch.ok()) << batch.status();
    for (int rep = 1; rep < kWarmRuns; ++rep) {
      auto again = engine.RunBatch(queries);
      NMRS_CHECK(again.ok()) << again.status();
      if (again->ModeledMakespanMillis() < batch->ModeledMakespanMillis()) {
        batch = std::move(again);
      }
    }
    // The warm batch reads nothing the cold one did not, so the difference
    // is the one-time build's IO.
    const uint64_t build_reads =
        cold->total_io.TotalReads() - batch->total_io.TotalReads();

    if (workers == 1) {
      reference_io = cold->total_io;
      reference_warm_io = batch->total_io;
      base_qps = batch->ModeledQps();
    } else if (!(cold->total_io == reference_io) ||
               !(batch->total_io == reference_warm_io)) {
      io_identical = false;
    }
    const double qps = batch->ModeledQps();
    const double speedup = base_qps > 0 ? qps / base_qps : 0;
    if (workers == 8) speedup_at_8 = speedup;

    table.AddRow({std::to_string(workers), Fmt(cold->wall_millis),
                  Fmt(cold->ModeledMakespanMillis()),
                  Fmt(batch->wall_millis),
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
    json.Field("cold_wall_millis", cold->wall_millis);
    json.Field("cold_modeled_makespan_millis",
               cold->ModeledMakespanMillis());
    json.Field("build_page_reads", build_reads);
    EmitIoFields(&json, batch->total_io);
  }
  table.Print();

  ShapeCheck("parallel-io-worker-independent", io_identical,
             "aggregate IO identical for every worker count");
  ShapeCheck("parallel-3x-at-8-workers", speedup_at_8 >= 3.0,
             "warm-engine modeled throughput at 8 workers is " +
                 Fmt(speedup_at_8, 2) +
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
