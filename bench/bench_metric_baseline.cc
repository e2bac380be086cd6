// §5.7: applicability of metric-space approaches. Once a query fixes the
// Euclidean "distance space", an R-tree *could* index it — but it must be
// built at query time: read the database once and write out the mapped
// data plus the index (≥ 3 database-sized IO streams, plus random IO in
// practice). This bench quantifies that construction cost on the simulated
// disk and compares it against the *complete* TRS query, reproducing the
// paper's conclusion that query-time index construction alone rules the
// approach out.
#include <cstdio>

#include "bench_util.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "metric/query_time_index.h"

int main(int argc, char** argv) {
  using namespace nmrs;
  using bench::Fmt;
  const bench::Args args = bench::Args::Parse(argc, argv, /*scale=*/0.05);

  bench::Banner("Query-time R-tree construction vs complete TRS query");
  bench::Table table({"rows", "D pages", "build IO (pages)", "build seq",
                      "build rand", "TRS query IO", "build/TRS"});

  double worst_ratio = 1e300;
  const std::vector<size_t> cards(5, 50);
  Rng master(args.seed);
  Rng space_rng = master.Fork();
  SimilaritySpace space = MakeRandomSpace(cards, space_rng);
  for (uint64_t paper_rows : {200000ull, 600000ull, 1200000ull}) {
    const uint64_t rows = args.Rows(paper_rows);
    Rng data_rng(args.seed + paper_rows);
    Dataset data = GenerateNormal(rows, cards, data_rng);

    SimulatedDisk disk;
    auto prepared = PrepareDataset(&disk, data, Algorithm::kTRS, {});
    NMRS_CHECK(prepared.ok());
    Rng qrng(args.seed * 7919 + 17);
    const Object q = SampleUniformQuery(data, qrng);

    RSOptions opts;
    opts.memory =
        MemoryBudget::FromFraction(0.10, prepared->stored.num_pages());
    auto trs = RunReverseSkyline(*prepared, space, q, Algorithm::kTRS, opts);
    NMRS_CHECK(trs.ok());

    auto cost = BuildQueryTimeRTree(prepared->stored, space, q);
    NMRS_CHECK(cost.ok());

    const double ratio = static_cast<double>(cost->io.Total()) /
                         static_cast<double>(trs->stats.io.Total());
    worst_ratio = std::min(worst_ratio, ratio);
    table.AddRow({std::to_string(rows),
                  std::to_string(prepared->stored.num_pages()),
                  std::to_string(cost->io.Total()),
                  std::to_string(cost->io.TotalSequential()),
                  std::to_string(cost->io.TotalRandom()),
                  std::to_string(trs->stats.io.Total()),
                  Fmt(ratio, 2) + "x"});
  }
  table.Print();
  std::printf("(the build cost excludes actually *answering* the reverse\n"
              " skyline query — it is a lower bound on any metric-space\n"
              " approach's per-query cost)\n");
  bench::ShapeCheck("sec5.7-construction-dominates", worst_ratio > 1.0,
                    "query-time index construction is " + Fmt(worst_ratio, 2) +
                        "x a full TRS query's IO at minimum",
                    bench::Claim::kCount);
  return bench::ShapeCheckExitCode();
}
