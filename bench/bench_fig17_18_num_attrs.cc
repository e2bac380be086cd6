// Figures 17-18: IO cost and response time (log scale in the paper) vs.
// data density, by varying the number of attributes from 3 to 7 at 50
// values per attribute (paper: 1M rows, scaled by --scale). Paper claims:
// TRS responds up to 5x faster than SRS and 8x faster than BRS; the gains
// of group-level reasoning scale with the number of attributes.
#include <cstdio>

#include "bench_util.h"
#include "data/generators.h"

int main(int argc, char** argv) {
  using namespace nmrs;
  using bench::Fmt;
  const bench::Args args = bench::Args::Parse(argc, argv, /*scale=*/0.05);
  const uint64_t rows = args.Rows(1000000);

  bench::Table io({"attrs", "BRS seq", "SRS seq", "TRS seq", "BRS rand",
                   "SRS rand", "TRS rand"});
  bench::Table resp(
      {"attrs", "BRS resp(ms)", "SRS resp(ms)", "TRS resp(ms)"});

  double trs_sum = 0, srs_sum = 0, brs_sum = 0;
  double trs_checks = 0, srs_checks = 0;
  for (size_t attrs = 3; attrs <= 7; ++attrs) {
    const std::vector<size_t> cards(attrs, 50);
    Rng rng(args.seed + attrs);
    Rng data_rng = rng.Fork();
    Rng space_rng = rng.Fork();
    Dataset data = GenerateNormal(rows, cards, data_rng);
    SimilaritySpace space = MakeRandomSpace(cards, space_rng);

    auto brs = RunPoint(data, space, Algorithm::kBRS, 0.10, args);
    auto srs = RunPoint(data, space, Algorithm::kSRS, 0.10, args);
    auto trs = RunPoint(data, space, Algorithm::kTRS, 0.10, args);

    const std::string a = std::to_string(attrs);
    io.AddRow({a, Fmt(brs.seq_io, 0), Fmt(srs.seq_io, 0), Fmt(trs.seq_io, 0),
               Fmt(brs.rand_io, 0), Fmt(srs.rand_io, 0),
               Fmt(trs.rand_io, 0)});
    resp.AddRow({a, Fmt(brs.response_ms), Fmt(srs.response_ms),
                 Fmt(trs.response_ms)});
    trs_sum += trs.response_ms;
    srs_sum += srs.response_ms;
    brs_sum += brs.response_ms;
    trs_checks += trs.checks;
    srs_checks += srs.checks;
  }
  std::printf("\n[Fig 17: IO cost vs density (varying # attributes)]\n");
  io.Print();
  std::printf("\n[Fig 18: response time vs density (paper plots log "
              "scale)]\n");
  resp.Print();

  bench::ShapeCheck("fig18-trs-beats-brs", trs_sum < brs_sum,
                    "TRS " + Fmt(trs_sum) + "ms, SRS " + Fmt(srs_sum) +
                        "ms, BRS " + Fmt(brs_sum) + "ms (summed)");
  bench::ShapeCheck("fig18-trs-fewer-checks", trs_checks < srs_checks,
                    "TRS " + Fmt(trs_checks, 0) + " vs SRS " +
                        Fmt(srs_checks, 0) +
                        " checks (gains scale with #attributes)",
                    bench::Claim::kCount);
  return bench::ShapeCheckExitCode();
}
