// Ablations of the design choices DESIGN.md calls out:
//  1. TRS child ordering: ascending-descendant-count push order (paper
//     Alg. 4 line 8) vs. insertion order.
//  2. Attribute ordering for the sort/tree: ascending cardinality (paper
//     §5.1 heuristic) vs. descending vs. random.
//  3. SRS phase-1 expanding-ring search vs. plain forward scan on the same
//     sorted data (forward scan == BRS's search on sorted input).
#include <cstdio>

#include "bench_util.h"
#include "data/generators.h"
#include "order/attribute_order.h"

namespace nmrs {
namespace {

// Prepares the data for `prepare_algo`'s ordering but processes the query
// with `run_algo` — letting us, e.g., run BRS's forward scan over
// SRS-sorted data for the ring-search ablation.
bench::AlgoMetrics RunWith(const Dataset& data, const SimilaritySpace& space,
                           Algorithm prepare_algo, Algorithm run_algo,
                           const bench::Args& args,
                           const std::vector<AttrId>& attr_order,
                           bool order_children) {
  SimulatedDisk disk;
  PrepareOptions prep;
  prep.attr_order = attr_order;
  auto prepared = PrepareDataset(&disk, data, prepare_algo, prep);
  NMRS_CHECK(prepared.ok());
  RSOptions opts;
  opts.use_kernels = false;  // the ablations compare scalar check counts
  opts.memory = MemoryBudget::FromFraction(0.10, prepared->stored.num_pages());
  opts.order_children_by_descendants = order_children;

  bench::AlgoMetrics avg;
  Rng query_rng(args.seed * 7919 + 17);
  for (int qi = 0; qi < args.queries; ++qi) {
    Object q = SampleUniformQuery(data, query_rng);
    auto result = RunReverseSkyline(*prepared, space, q, run_algo, opts);
    NMRS_CHECK(result.ok());
    avg.compute_ms += result->stats.compute_millis / args.queries;
    avg.checks +=
        static_cast<double>(result->stats.checks) / args.queries;
    avg.survivors += static_cast<double>(result->stats.phase1_survivors) /
                     args.queries;
  }
  return avg;
}

}  // namespace
}  // namespace nmrs

int main(int argc, char** argv) {
  using namespace nmrs;
  using bench::Fmt;
  const bench::Args args = bench::Args::Parse(argc, argv, /*scale=*/0.03);
  const uint64_t rows = args.Rows(1000000);
  const std::vector<size_t> cards = {8, 70, 25, 50, 12};  // varied domains
  Rng rng(args.seed);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  Rng order_rng = rng.Fork();
  // Uniform value distribution: with the paper's normal (variance 3) data
  // every attribute collapses to ~9 effective values, so cardinality-based
  // orderings cannot differ; uniform data exposes the heuristic.
  Dataset data = GenerateUniform(rows, cards, data_rng);
  SimilaritySpace space = MakeRandomSpace(cards, space_rng);
  const Schema& schema = data.schema();

  bench::Banner("Ablation 1: TRS child push order (n=" +
                std::to_string(rows) + ")");
  auto asc = AscendingCardinalityOrder(schema);
  auto with_order = RunWith(data, space, Algorithm::kTRS, Algorithm::kTRS, args, asc, true);
  auto no_order = RunWith(data, space, Algorithm::kTRS, Algorithm::kTRS, args, asc, false);
  bench::Table t1({"variant", "checks", "comp(ms)"});
  t1.AddRow({"descendant-ordered (paper)", Fmt(with_order.checks, 0),
             Fmt(with_order.compute_ms)});
  t1.AddRow({"insertion order", Fmt(no_order.checks, 0),
             Fmt(no_order.compute_ms)});
  t1.Print();
  bench::ShapeCheck("ablation-child-order",
                    with_order.checks <= no_order.checks * 1.10,
                    "ordered " + Fmt(with_order.checks, 0) +
                        " vs unordered " + Fmt(no_order.checks, 0),
                    bench::Claim::kCount);

  bench::Banner("Ablation 2: attribute ordering heuristic (TRS)");
  auto desc = DescendingCardinalityOrder(schema);
  auto rnd = RandomOrder(schema, order_rng);
  auto m_asc = RunWith(data, space, Algorithm::kTRS, Algorithm::kTRS, args, asc, true);
  auto m_desc = RunWith(data, space, Algorithm::kTRS, Algorithm::kTRS, args, desc, true);
  auto m_rnd = RunWith(data, space, Algorithm::kTRS, Algorithm::kTRS, args, rnd, true);
  bench::Table t2({"ordering", "checks", "comp(ms)", "P1 survivors"});
  t2.AddRow({"ascending cardinality (paper)", Fmt(m_asc.checks, 0),
             Fmt(m_asc.compute_ms), Fmt(m_asc.survivors, 0)});
  t2.AddRow({"descending cardinality", Fmt(m_desc.checks, 0),
             Fmt(m_desc.compute_ms), Fmt(m_desc.survivors, 0)});
  t2.AddRow({"random", Fmt(m_rnd.checks, 0), Fmt(m_rnd.compute_ms),
             Fmt(m_rnd.survivors, 0)});
  t2.Print();
  bench::ShapeCheck("ablation-attr-order",
                    m_asc.checks <= m_desc.checks * 1.25,
                    "ascending " + Fmt(m_asc.checks, 0) +
                        " vs descending " + Fmt(m_desc.checks, 0),
                    bench::Claim::kCount);

  bench::Banner("Ablation 3: SRS ring search vs forward scan (sorted data)");
  auto ring = RunWith(data, space, Algorithm::kSRS, Algorithm::kSRS, args, asc, true);
  // BRS on SRS-prepared (sorted) data = forward scan phase 1.
  auto forward = RunWith(data, space, Algorithm::kSRS, Algorithm::kBRS, args, asc, true);
  bench::Table t3({"search", "checks", "comp(ms)"});
  t3.AddRow({"expanding ring (paper)", Fmt(ring.checks, 0),
             Fmt(ring.compute_ms)});
  t3.AddRow({"forward scan", Fmt(forward.checks, 0),
             Fmt(forward.compute_ms)});
  t3.Print();
  bench::ShapeCheck("ablation-ring-search", ring.checks <= forward.checks,
                    "ring " + Fmt(ring.checks, 0) + " vs forward " +
                        Fmt(forward.checks, 0),
                    bench::Claim::kCount);
  return bench::ShapeCheckExitCode();
}
