// Figures 9-10: IO cost and response time vs. available memory (5%-20%)
// on synthetic normal data — the paper uses 1M objects, 5 attributes,
// 50 values per attribute (scaled here by --scale).
#include <cstdio>

#include "bench_util.h"
#include "data/generators.h"

int main(int argc, char** argv) {
  using namespace nmrs;
  using bench::Fmt;
  const bench::Args args = bench::Args::Parse(argc, argv, /*scale=*/0.1);

  const uint64_t rows = args.Rows(1000000);
  const std::vector<size_t> cards(5, 50);
  Rng rng(args.seed);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  Dataset data = GenerateNormal(rows, cards, data_rng);
  SimilaritySpace space = MakeRandomSpace(cards, space_rng);

  bench::Banner("Synthetic normal, " + std::to_string(rows) +
                " rows x 5 attrs x 50 values (paper: 1M)");

  const std::vector<double> fractions = {0.05, 0.10, 0.15, 0.20};
  bench::Table io({"mem%", "BRS seq", "SRS seq", "TRS seq", "BRS rand",
                   "SRS rand", "TRS rand"});
  bench::Table resp({"mem%", "BRS resp(ms)", "SRS resp(ms)", "TRS resp(ms)"});

  double trs_resp = 0, srs_resp = 0, brs_resp = 0, trs_rand = 0,
         others_rand = 0;
  for (double frac : fractions) {
    auto brs = RunPoint(data, space, Algorithm::kBRS, frac, args);
    auto srs = RunPoint(data, space, Algorithm::kSRS, frac, args);
    auto trs = RunPoint(data, space, Algorithm::kTRS, frac, args);
    io.AddRow({Fmt(frac * 100, 0), Fmt(brs.seq_io, 0), Fmt(srs.seq_io, 0),
               Fmt(trs.seq_io, 0), Fmt(brs.rand_io, 0), Fmt(srs.rand_io, 0),
               Fmt(trs.rand_io, 0)});
    resp.AddRow({Fmt(frac * 100, 0), Fmt(brs.response_ms),
                 Fmt(srs.response_ms), Fmt(trs.response_ms)});
    brs_resp += brs.response_ms;
    srs_resp += srs.response_ms;
    trs_resp += trs.response_ms;
    trs_rand += trs.rand_io;
    others_rand += (brs.rand_io + srs.rand_io) / 2;
  }
  std::printf("\n[Fig 9: IO cost vs %% memory]\n");
  io.Print();
  std::printf("\n[Fig 10: response time vs %% memory]\n");
  resp.Print();

  bench::ShapeCheck("fig10-trs-fastest",
                    trs_resp < srs_resp && trs_resp < brs_resp,
                    "TRS " + Fmt(trs_resp) + "ms vs SRS " + Fmt(srs_resp) +
                        "ms vs BRS " + Fmt(brs_resp) + "ms");
  bench::ShapeCheck("fig9-trs-least-random-io", trs_rand <= others_rand,
                    "TRS " + Fmt(trs_rand, 0) + " vs avg(BRS,SRS) " +
                        Fmt(others_rand, 0),
                    bench::Claim::kCount);
  return bench::ShapeCheckExitCode();
}
