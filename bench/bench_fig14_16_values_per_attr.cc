// Figures 14-16: computation, IO and response time vs. data density, by
// varying the number of values per attribute from 45 to 70 (step 5) at a
// fixed dataset size (paper: 1M rows, 5 attributes; scaled by --scale).
// Paper claims: TRS outperforms BRS and SRS by ~6x and ~3x on average; the
// random-IO gap between TRS and the others widens.
#include <cstdio>

#include "bench_util.h"
#include "data/generators.h"

int main(int argc, char** argv) {
  using namespace nmrs;
  using bench::Fmt;
  const bench::Args args = bench::Args::Parse(argc, argv, /*scale=*/0.05);
  const uint64_t rows = args.Rows(1000000);

  bench::Table compute({"values", "density", "BRS comp(ms)", "SRS comp(ms)",
                        "TRS comp(ms)"});
  bench::Table io({"values", "BRS seq", "SRS seq", "TRS seq", "BRS rand",
                   "SRS rand", "TRS rand"});
  bench::Table resp(
      {"values", "BRS resp(ms)", "SRS resp(ms)", "TRS resp(ms)"});

  double trs_sum = 0, srs_sum = 0, brs_sum = 0;
  double trs_rand = 0, brs_rand = 0;
  double trs_checks = 0, srs_checks = 0;
  for (size_t values = 45; values <= 70; values += 5) {
    const std::vector<size_t> cards(5, values);
    Rng rng(args.seed + values);
    Rng data_rng = rng.Fork();
    Rng space_rng = rng.Fork();
    Dataset data = GenerateNormal(rows, cards, data_rng);
    SimilaritySpace space = MakeRandomSpace(cards, space_rng);

    auto brs = RunPoint(data, space, Algorithm::kBRS, 0.10, args);
    auto srs = RunPoint(data, space, Algorithm::kSRS, 0.10, args);
    auto trs = RunPoint(data, space, Algorithm::kTRS, 0.10, args);

    const std::string v = std::to_string(values);
    compute.AddRow({v, Fmt(data.Density(), 8), Fmt(brs.compute_ms),
                    Fmt(srs.compute_ms), Fmt(trs.compute_ms)});
    io.AddRow({v, Fmt(brs.seq_io, 0), Fmt(srs.seq_io, 0), Fmt(trs.seq_io, 0),
               Fmt(brs.rand_io, 0), Fmt(srs.rand_io, 0),
               Fmt(trs.rand_io, 0)});
    resp.AddRow({v, Fmt(brs.response_ms), Fmt(srs.response_ms),
                 Fmt(trs.response_ms)});
    trs_sum += trs.compute_ms;
    srs_sum += srs.compute_ms;
    brs_sum += brs.compute_ms;
    trs_rand += trs.rand_io;
    brs_rand += brs.rand_io;
    trs_checks += trs.checks;
    srs_checks += srs.checks;
  }
  std::printf("\n[Fig 14: computation vs density (varying # values)]\n");
  compute.Print();
  std::printf("\n[Fig 15: IO cost vs density]\n");
  io.Print();
  std::printf("\n[Fig 16: response time vs density]\n");
  resp.Print();

  bench::ShapeCheck("fig14-trs-beats-brs", trs_sum < brs_sum,
                    "TRS " + Fmt(trs_sum) + "ms, SRS " + Fmt(srs_sum) +
                        "ms, BRS " + Fmt(brs_sum) + "ms");
  bench::ShapeCheck("fig14-trs-fewer-checks", trs_checks < srs_checks,
                    "TRS " + Fmt(trs_checks, 0) + " vs SRS " +
                        Fmt(srs_checks, 0) + " checks",
                    bench::Claim::kCount);
  bench::ShapeCheck("fig15-trs-random-io-advantage", trs_rand < brs_rand,
                    "TRS rand " + Fmt(trs_rand, 0) + " < BRS rand " +
                        Fmt(brs_rand, 0),
                    bench::Claim::kCount);
  return bench::ShapeCheckExitCode();
}
