// §6 (numeric attributes via discretization) — the paper describes the
// mechanism without a dedicated figure; this ablation quantifies it:
// bucket count vs. phase-1 survivors / checks / response time for TRS on a
// mixed categorical+numeric dataset, against the exact-value BRS/SRS
// baselines. Expected: coarse buckets weaken phase-1 pruning (more
// survivors refined in phase 2); moderate bucket counts recover most of
// TRS's advantage while staying exact in the final answer.
#include <cstdio>

#include "bench_util.h"
#include "data/generators.h"

int main(int argc, char** argv) {
  using namespace nmrs;
  using bench::Fmt;
  const bench::Args args = bench::Args::Parse(argc, argv, /*scale=*/0.05);
  const uint64_t rows = args.Rows(200000);

  const std::vector<size_t> cat_cards = {20, 20};
  const size_t num_numeric = 2;

  bench::Banner("Numeric handling: " + std::to_string(rows) +
                " rows, 2 categorical + 2 numeric attributes");

  // Exact baselines (bucket count irrelevant to BRS/SRS processing).
  Rng base_rng(args.seed);
  Rng data_rng = base_rng.Fork();
  Rng space_rng = base_rng.Fork();
  Dataset base_data =
      GenerateMixed(rows, cat_cards, num_numeric, 8, data_rng);
  SimilaritySpace space;
  {
    Rng m_rng = space_rng;
    for (size_t card : cat_cards) {
      space.AddCategorical(MakeRandomMatrix(card, m_rng));
    }
    for (size_t i = 0; i < num_numeric; ++i) {
      space.AddNumeric(NumericDissimilarity());
    }
  }
  auto brs = RunPoint(base_data, space, Algorithm::kBRS, 0.10, args);
  auto srs = RunPoint(base_data, space, Algorithm::kSRS, 0.10, args);

  bench::Table table({"algo", "buckets", "P1 survivors", "checks",
                      "resp(ms)", "result"});
  table.AddRow({"BRS", "-", Fmt(brs.survivors, 0), Fmt(brs.checks, 0),
                Fmt(brs.response_ms), Fmt(brs.result_size, 1)});
  table.AddRow({"SRS", "-", Fmt(srs.survivors, 0), Fmt(srs.checks, 0),
                Fmt(srs.response_ms), Fmt(srs.result_size, 1)});

  double survivors_coarse = 0, survivors_fine = 0, best_trs = 1e100;
  for (size_t buckets : {2u, 4u, 8u, 16u, 32u, 64u}) {
    Rng d_rng(args.seed + 1);  // same numeric draws for every bucket count
    Dataset data = GenerateMixed(rows, cat_cards, num_numeric, buckets,
                                 d_rng);
    auto trs = RunPoint(data, space, Algorithm::kTRS, 0.10, args);
    table.AddRow({"TRS", std::to_string(buckets), Fmt(trs.survivors, 0),
                  Fmt(trs.checks, 0), Fmt(trs.response_ms),
                  Fmt(trs.result_size, 1)});
    if (buckets == 2) survivors_coarse = trs.survivors;
    if (buckets == 64) survivors_fine = trs.survivors;
    best_trs = std::min(best_trs, trs.response_ms);
  }
  table.Print();

  bench::ShapeCheck("sec6-coarse-buckets-more-survivors",
                    survivors_coarse >= survivors_fine,
                    Fmt(survivors_coarse, 0) + " @2 buckets vs " +
                        Fmt(survivors_fine, 0) + " @64 buckets",
                    bench::Claim::kCount);
  bench::ShapeCheck("sec6-trs-competitive", best_trs <= brs.response_ms,
                    "best TRS " + Fmt(best_trs) + "ms <= BRS " +
                        Fmt(brs.response_ms) + "ms");
  return bench::ShapeCheckExitCode();
}
