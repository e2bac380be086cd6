// §1 of the paper: "the Reverse Skyline set is the union of the RNN set
// across all possible specifications of monotonic aggregation functions".
// This bench samples increasing numbers of random positive weightings,
// verifies every RNN set stays inside RS(Q), and shows the union's
// coverage of RS(Q) growing — motivating RS as the aggregation-free
// influence operator.
#include <cstdio>

#include "bench_util.h"
#include "core/skyline.h"
#include "data/generators.h"
#include "ops/rnn.h"

int main(int argc, char** argv) {
  using namespace nmrs;
  using bench::Fmt;
  const bench::Args args = bench::Args::Parse(argc, argv, /*scale=*/1.0);

  const uint64_t rows = args.quick ? 400 : 2000;
  const std::vector<size_t> cards = {15, 15, 15};
  Rng rng(args.seed);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  Rng query_rng = rng.Fork();
  Dataset data = GenerateUniform(rows, cards, data_rng);
  SimilaritySpace space = MakeRandomSpace(cards, space_rng);
  Object q = SampleUniformQuery(data, query_rng);

  auto rs = ReverseSkylineOracle(data, space, q);
  bench::Banner("RS(Q) as the union of RNN over monotone aggregates (" +
                std::to_string(rows) + " rows, |RS| = " +
                std::to_string(rs.size()) + ")");

  bench::Table table({"# weightings", "union |RNN|", "% of RS covered",
                      "all subsets of RS?"});
  double final_coverage = 0;
  bool always_subset = true;
  for (int w : {1, 2, 5, 10, 25, 50, 100}) {
    auto covered = RnnUnionCoverage(data, space, q, w, args.seed + 7);
    const bool subset =
        std::includes(rs.begin(), rs.end(), covered.begin(), covered.end());
    always_subset &= subset;
    final_coverage = rs.empty() ? 100.0
                                : 100.0 * static_cast<double>(covered.size()) /
                                      static_cast<double>(rs.size());
    table.AddRow({std::to_string(w), std::to_string(covered.size()),
                  Fmt(final_coverage, 1) + "%", subset ? "yes" : "NO"});
  }
  table.Print();

  bench::ShapeCheck("rnn-always-subset-of-rs", always_subset,
                    "every sampled RNN(Q, w) is contained in RS(Q)",
                    bench::Claim::kCount);
  // Note: full coverage needs all *monotone* aggregates, not just linear
  // weighted sums — skyline points that are never optimal for any linear
  // weighting (inside the "convex hull" of the distance space) stay
  // uncovered no matter how many weight vectors are sampled. Partial
  // coverage that grows with samples is exactly the expected picture.
  bench::ShapeCheck("rnn-union-grows-toward-rs", final_coverage >= 50.0,
                    Fmt(final_coverage, 1) +
                        "% of RS covered by 100 linear weightings (union "
                        "never exceeds RS; the gap needs non-linear "
                        "monotone aggregates)",
                    bench::Claim::kCount);
  return bench::ShapeCheckExitCode();
}
