// Figures 3-8: computational cost, IO cost (sequential + random) and
// response time vs. available memory (% of dataset size) on the real-data
// substitutes Census-Income (dense, 6.9%) and ForestCover (sparse, 0.04%).
// Paper claims: TRS ~3x faster than SRS and ~6x than BRS computationally;
// sequential IO similar across algorithms (two passes each); TRS incurs
// the least random IO; response time tracks computation.
#include <cstdio>

#include "bench_util.h"
#include "data/generators.h"

namespace nmrs {
namespace {

using bench::AlgoMetrics;
using bench::Args;
using bench::Fmt;
using bench::Table;

// Returns the average IO share of TRS's response time on this dataset, so
// main() can check the paper's density claim (§5.3: IO contributes up to
// ~65% on the dense CI dataset, much less on sparse FC).
double RunDataset(const std::string& name, const Dataset& data,
                  const SimilaritySpace& space, const Args& args) {
  bench::Banner(name + " (" + std::to_string(data.num_rows()) +
                " rows, density " + Fmt(data.Density() * 100, 4) + "%)");
  const std::vector<double> memory_fractions = {0.04, 0.08, 0.12, 0.16,
                                                0.20};
  const Algorithm algos[] = {Algorithm::kBRS, Algorithm::kSRS,
                             Algorithm::kTRS};

  Table compute({"mem%", "BRS comp(ms)", "SRS comp(ms)", "TRS comp(ms)"});
  Table io({"mem%", "BRS seq", "SRS seq", "TRS seq", "BRS rand", "SRS rand",
            "TRS rand"});
  Table resp({"mem%", "BRS resp(ms)", "SRS resp(ms)", "TRS resp(ms)"});

  double brs_total = 0, srs_total = 0, trs_total = 0;
  double brs_rand = 0, trs_rand = 0;
  double srs_checks = 0, trs_checks = 0;
  double io_share_sum = 0;
  for (double frac : memory_fractions) {
    AlgoMetrics m[3];
    for (int i = 0; i < 3; ++i) {
      m[i] = RunPoint(data, space, algos[i], frac, args);
    }
    compute.AddRow({Fmt(frac * 100, 0), Fmt(m[0].compute_ms),
                    Fmt(m[1].compute_ms), Fmt(m[2].compute_ms)});
    io.AddRow({Fmt(frac * 100, 0), Fmt(m[0].seq_io, 0), Fmt(m[1].seq_io, 0),
               Fmt(m[2].seq_io, 0), Fmt(m[0].rand_io, 0),
               Fmt(m[1].rand_io, 0), Fmt(m[2].rand_io, 0)});
    resp.AddRow({Fmt(frac * 100, 0), Fmt(m[0].response_ms),
                 Fmt(m[1].response_ms), Fmt(m[2].response_ms)});
    brs_total += m[0].compute_ms;
    srs_total += m[1].compute_ms;
    trs_total += m[2].compute_ms;
    brs_rand += m[0].rand_io;
    trs_rand += m[2].rand_io;
    srs_checks += m[1].checks;
    trs_checks += m[2].checks;
    if (m[2].response_ms > 0) {
      io_share_sum += (m[2].response_ms - m[2].compute_ms) / m[2].response_ms;
    }
  }
  std::printf("\n[Fig computation vs %% memory]\n");
  compute.Print();
  std::printf("\n[Fig IO cost vs %% memory]\n");
  io.Print();
  std::printf("\n[Fig response time vs %% memory]\n");
  resp.Print();

  bench::ShapeCheck(name + "-trs-beats-brs-compute",
                    trs_total < brs_total,
                    "TRS " + Fmt(trs_total) + "ms vs BRS " + Fmt(brs_total) +
                        "ms (summed; SRS " + Fmt(srs_total) + "ms)");
  bench::ShapeCheck(name + "-trs-fewer-checks", trs_checks < srs_checks,
                    "TRS " + Fmt(trs_checks, 0) + " vs SRS " +
                        Fmt(srs_checks, 0) + " checks",
                    bench::Claim::kCount);
  bench::ShapeCheck(name + "-srs-beats-brs", srs_total <= brs_total * 1.05,
                    "SRS " + Fmt(srs_total) + "ms <= BRS " +
                        Fmt(brs_total) + "ms");
  bench::ShapeCheck(name + "-trs-least-random-io", trs_rand <= brs_rand,
                    "TRS rand IO " + Fmt(trs_rand, 0) + " <= BRS rand IO " +
                        Fmt(brs_rand, 0),
                    bench::Claim::kCount);
  return io_share_sum / static_cast<double>(memory_fractions.size());
}

}  // namespace
}  // namespace nmrs

int main(int argc, char** argv) {
  using namespace nmrs;
  const bench::Args args = bench::Args::Parse(argc, argv, /*scale=*/0.2);
  Rng rng(args.seed);
  Rng ci_rng = rng.Fork();
  Rng fc_rng = rng.Fork();
  Rng space_rng = rng.Fork();

  double ci_io_share = 0, fc_io_share = 0;
  {
    Dataset ci =
        GenerateCensusIncomeLike(args.Rows(kCensusIncomeFullRows), ci_rng);
    SimilaritySpace space =
        MakeRandomSpace(CensusIncomeCardinalities(), space_rng);
    ci_io_share = RunDataset("Census-Income-like", ci, space, args);
  }
  {
    Dataset fc =
        GenerateForestCoverLike(args.Rows(kForestCoverFullRows), fc_rng);
    SimilaritySpace space =
        MakeRandomSpace(ForestCoverCardinalities(), space_rng);
    fc_io_share = RunDataset("ForestCover-like", fc, space, args);
  }
  // §5.3: the denser dataset's response time is more IO-bound ("upto 65%
  // of total response time on CI, much lesser for FC").
  bench::ShapeCheck(
      "sec5.3-denser-data-more-io-bound", ci_io_share > fc_io_share,
      "TRS IO share: CI-like " + bench::Fmt(ci_io_share * 100, 1) +
          "% vs FC-like " + bench::Fmt(fc_io_share * 100, 1) + "%");
  return bench::ShapeCheckExitCode();
}
