// google-benchmark micro-benchmarks of the library's hot paths: the
// attribute-level pruning check, AL-Tree construction, and the
// AL-Tree pruner-search workload embodied by full TRS vs SRS queries
// on an in-memory-sized dataset.
#include <benchmark/benchmark.h>

#include "core/dominance.h"
#include "core/dominance_kernel.h"
#include "core/query_distance_table.h"
#include "data/columnar_batch.h"
#include "core/skyline.h"
#include "ops/topk.h"
#include "core/pipeline.h"
#include "altree/al_tree.h"
#include "data/generators.h"
#include "order/attribute_order.h"
#include "order/multi_sort.h"

namespace nmrs {
namespace {

struct MicroData {
  Dataset data;
  SimilaritySpace space;
  Object query;

  explicit MicroData(uint64_t rows, size_t attrs = 5, size_t values = 50)
      : data(Schema::Categorical(std::vector<size_t>(attrs, values))) {
    Rng rng(1234);
    Rng data_rng = rng.Fork();
    Rng space_rng = rng.Fork();
    Rng query_rng = rng.Fork();
    const std::vector<size_t> cards(attrs, values);
    data = GenerateNormal(rows, cards, data_rng);
    space = MakeRandomSpace(cards, space_rng);
    query = SampleUniformQuery(data, query_rng);
  }
};

void BM_PruneCheck(benchmark::State& state) {
  MicroData d(10000);
  PruneContext ctx(d.space, d.data.schema(), d.query, {});
  ctx.SetCandidate(d.data.RowValues(0), nullptr);
  uint64_t checks = 0;
  RowId y = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctx.Prunes(d.data.RowValues(y), nullptr, &checks));
    y = (y + 1) % d.data.num_rows();
    if (y == 0) y = 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PruneCheck);

// Same workload through the per-query memo: identical verdicts, but both
// sides of every attribute check are flat array loads instead of the
// SimilaritySpace -> DissimilarityMatrix double indirection.
void BM_PruneCheckMemoized(benchmark::State& state) {
  MicroData d(10000);
  const auto selected = ResolveSelectedAttrs(d.data.schema(), {});
  QueryDistanceTable table(d.space, d.data.schema(), d.query, selected);
  PruneContext ctx(d.space, d.data.schema(), d.query, {}, &table);
  ctx.SetCandidate(d.data.RowValues(0), nullptr);
  uint64_t checks = 0;
  RowId y = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctx.Prunes(d.data.RowValues(y), nullptr, &checks));
    y = (y + 1) % d.data.num_rows();
    if (y == 0) y = 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PruneCheckMemoized);

// The block-kernel counterpart (core/dominance_kernel.h): verdicts and
// scalar-equivalent check counts for the whole 10k-row columnar batch per
// iteration, gather -> compare -> movemask with runtime dispatch. Items
// processed counts rows, so items/sec is directly comparable to the
// per-row loops above.
void BM_PruneCheckKernel(benchmark::State& state) {
  MicroData d(10000);
  const auto selected = ResolveSelectedAttrs(d.data.schema(), {});
  QueryDistanceTable table(d.space, d.data.schema(), d.query, selected);
  PruneContext ctx(d.space, d.data.schema(), d.query, {}, &table);
  RowBatch batch(d.data.schema().num_attributes(), false);
  for (RowId r = 0; r < d.data.num_rows(); ++r) {
    batch.Append(r, d.data.RowValues(r), nullptr);
  }
  ColumnarBatch cols;
  cols.Build(batch);
  DominanceKernel kernel(ctx, cols);
  uint64_t checks = 0;
  RowId x = 0;
  for (auto _ : state) {
    ctx.SetCandidate(d.data.RowValues(x), nullptr);
    kernel.BeginCandidate();
    benchmark::DoNotOptimize(kernel.CountPruners(0, cols.size(), &checks));
    x = (x + 1) % d.data.num_rows();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cols.size()));
}
BENCHMARK(BM_PruneCheckKernel);

void BM_ALTreeInsert(benchmark::State& state) {
  MicroData d(static_cast<uint64_t>(state.range(0)));
  const auto order = AscendingCardinalityOrder(d.data.schema());
  for (auto _ : state) {
    ALTree tree(d.data.schema(), order);
    for (RowId r = 0; r < d.data.num_rows(); ++r) {
      tree.Insert(r, d.data.RowValues(r), nullptr);
    }
    benchmark::DoNotOptimize(tree.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ALTreeInsert)->Arg(1000)->Arg(10000);

// The load TRS performs per batch: rows in PrepareDataset's stored order
// (multi-attribute sort on the tree's attribute order), so consecutive rows
// mostly share their path.
void BM_ALTreeInsertSorted(benchmark::State& state) {
  MicroData d(static_cast<uint64_t>(state.range(0)));
  const auto order = AscendingCardinalityOrder(d.data.schema());
  const std::vector<RowId> sorted = MultiAttributeSortOrder(d.data, order);
  for (auto _ : state) {
    ALTree tree(d.data.schema(), order);
    for (RowId r : sorted) tree.Insert(r, d.data.RowValues(r), nullptr);
    benchmark::DoNotOptimize(tree.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ALTreeInsertSorted)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_ALTreePrepareForSearch(benchmark::State& state) {
  MicroData d(10000);
  const auto order = AscendingCardinalityOrder(d.data.schema());
  ALTree tree(d.data.schema(), order);
  for (RowId r = 0; r < d.data.num_rows(); ++r) {
    tree.Insert(r, d.data.RowValues(r), nullptr);
  }
  for (auto _ : state) {
    tree.PrepareForSearch();
    benchmark::DoNotOptimize(tree.Children(ALTree::kRootId).size());
  }
}
BENCHMARK(BM_ALTreePrepareForSearch);

void RunFullQuery(benchmark::State& state, Algorithm algo) {
  MicroData d(static_cast<uint64_t>(state.range(0)));
  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, d.data, algo, {});
  NMRS_CHECK(prepared.ok());
  RSOptions opts;
  opts.memory = MemoryBudget::FromFraction(0.10, prepared->stored.num_pages());
  for (auto _ : state) {
    auto result = RunReverseSkyline(*prepared, d.space, d.query, algo, opts);
    NMRS_CHECK(result.ok());
    benchmark::DoNotOptimize(result->rows.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_QuerySRS(benchmark::State& state) {
  RunFullQuery(state, Algorithm::kSRS);
}
void BM_QueryTRS(benchmark::State& state) {
  RunFullQuery(state, Algorithm::kTRS);
}
BENCHMARK(BM_QuerySRS)->Arg(5000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_QueryTRS)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_SkylineBNL(benchmark::State& state) {
  MicroData d(static_cast<uint64_t>(state.range(0)), 4, 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DynamicSkylineBNL(d.data, d.space, d.query).size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
void BM_SkylineTree(benchmark::State& state) {
  MicroData d(static_cast<uint64_t>(state.range(0)), 4, 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        TreeDynamicSkyline(d.data, d.space, d.query).size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SkylineBNL)->Arg(2000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SkylineTree)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_TopKOverTree(benchmark::State& state) {
  MicroData d(10000);
  WeightedDistance w = WeightedDistance::Uniform(5);
  // The AL-Tree is a query-independent index: built once, reused.
  ALTree tree(d.data.schema(), AscendingCardinalityOrder(d.data.schema()));
  for (RowId r = 0; r < d.data.num_rows(); ++r) {
    tree.Insert(r, d.data.RowValues(r), nullptr);
  }
  tree.PrepareForSearch();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        TopKOverTree(tree, d.data.schema(), d.space, d.query, w, 10).size());
  }
}
void BM_TopKScan(benchmark::State& state) {
  MicroData d(10000);
  WeightedDistance w = WeightedDistance::Uniform(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        TopKScan(d.data, d.space, d.query, w, 10).size());
  }
}
BENCHMARK(BM_TopKOverTree);
BENCHMARK(BM_TopKScan);

}  // namespace
}  // namespace nmrs
