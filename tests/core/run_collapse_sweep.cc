// Run-collapse sweep: SRS, T-SRS and BRS on the kernel path against the
// scalar path (RSOptions::use_kernels = false, the seed loops) on
// duplicate-heavy data, where the kernels test each run of identical rows
// once (docs/KERNELS.md, "Runs of identical rows").
//
// Inputs: seeded schemas of 2-4 categorical attributes with 2-4 values
// each (random asymmetric matrices, some with non-zero diagonal entries),
// some with one numeric attribute drawn from a two-value pool (so
// rows with equal categorical values sit in one run or split on the
// numeric); small pages and 2-5 page memory budgets, so runs longer than
// 32 rows straddle lane windows, pages and phase-1 batches. Per instance:
// a query equal to a row and a uniform one, all attributes or a subset,
// with and without an overlay; per run: the promotion thresholds 0, 1, 2,
// 16 and never, 1 and 3 phase-1 threads, and both lane dispatches.
//
// Rows, checks, pair tests, phase-1/phase-2 checks, survivors and IO must
// equal the scalar run's. A coverage check makes sure collapsing batches
// with runs longer than 32 rows occurred.
//
// Deliberately gtest-free so ci.sh can run it under ASan/UBSan with only
// instrumented code. Exits 0 when every run matches, 1 otherwise.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/dominance_kernel.h"
#include "core/pipeline.h"
#include "data/columnar_batch.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "exec/thread_pool.h"
#include "sim/matrix_overlay.h"
#include "sim/similarity_space.h"
#include "storage/disk.h"

namespace nmrs {
namespace {

struct Tally {
  uint64_t runs = 0;
  uint64_t mismatches = 0;
  // Runs longer than 32 rows inside collapsing phase-1 batches.
  uint64_t long_runs = 0;
};

Dataset DuplicateHeavy(Rng& rng, bool numeric) {
  const size_t m = 2 + rng.Uniform(3);
  Schema schema;
  for (size_t a = 0; a < m; ++a) {
    AttributeInfo info;
    info.name = "c" + std::to_string(a);
    info.cardinality = 2 + rng.Uniform(3);
    schema.AddAttribute(std::move(info));
  }
  if (numeric) {
    AttributeInfo info;
    info.name = "n";
    info.is_numeric = true;
    info.cardinality = 2;
    info.range = Interval{0.0, 10.0};
    schema.AddAttribute(std::move(info));
  }
  Dataset data(schema);
  const uint64_t rows = 900 + rng.Uniform(1200);
  std::vector<ValueId> values(schema.num_attributes(), 0);
  std::vector<double> numerics(schema.num_attributes(), 0.0);
  for (uint64_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < m; ++a) {
      values[a] = static_cast<ValueId>(
          rng.Uniform(schema.attribute(static_cast<AttrId>(a)).cardinality));
    }
    if (numeric) numerics[m] = rng.Bernoulli(0.7) ? 2.5 : 7.5;
    if (numeric) {
      data.AppendRow(values, numerics);
    } else {
      data.AppendCategoricalRow(values);
    }
  }
  return data;
}

SimilaritySpace SpaceFor(const Dataset& data, Rng& rng) {
  SimilaritySpace space;
  const Schema& schema = data.schema();
  for (AttrId a = 0; a < schema.num_attributes(); ++a) {
    const AttributeInfo& info = schema.attribute(a);
    if (info.is_numeric) {
      space.AddNumeric(NumericDissimilarity(0.1));
    } else {
      DissimilarityMatrix d =
          MakeRandomMatrix(info.cardinality, rng, {.symmetric = false});
      // Non-zero self-dissimilarities (the paper's arbitrary measures allow
      // them) make identical rows fail to prune each other for some
      // candidates, so runs hold both verdicts.
      for (ValueId v = 0; v < info.cardinality; ++v) {
        if (rng.Bernoulli(0.3)) d.Set(v, v, rng.UniformDouble(0.0, 0.5));
      }
      space.AddCategorical(std::move(d));
    }
  }
  return space;
}

// Counts the runs longer than 32 rows in the collapsing phase-1 batches of
// `stored` under a `memory_pages` budget.
uint64_t LongRunsInBatches(const StoredDataset& stored,
                           uint64_t memory_pages) {
  const Schema& schema = stored.schema();
  uint64_t long_runs = 0;
  for (PageId start = 0; start < stored.num_pages(); start += memory_pages) {
    RowBatch batch(schema.num_attributes(), schema.NumNumeric() > 0);
    const PageId end = std::min<PageId>(start + memory_pages,
                                        stored.num_pages());
    for (PageId p = start; p < end; ++p) {
      if (!stored.ReadPage(p, &batch).ok()) return 0;
    }
    ColumnarBatch cols;
    cols.Build(batch);
    if (!cols.collapses()) continue;
    for (size_t r = 0; r < cols.num_runs(); ++r) {
      long_runs += cols.run_start(r + 1) - cols.run_start(r) > 32;
    }
  }
  return long_runs;
}

bool SameAnswer(const ReverseSkylineResult& got,
                const ReverseSkylineResult& want) {
  const QueryStats& g = got.stats;
  const QueryStats& w = want.stats;
  return got.rows == want.rows && g.checks == w.checks &&
         g.pair_tests == w.pair_tests && g.phase1_checks == w.phase1_checks &&
         g.phase2_checks == w.phase2_checks &&
         g.phase1_survivors == w.phase1_survivors &&
         g.phase1_batches == w.phase1_batches &&
         g.phase2_batches == w.phase2_batches && g.io == w.io;
}

struct Variation {
  uint32_t promote;
  int threads;
  bool force_scalar;
};

constexpr Variation kVariations[] = {
    {0, 1, false},  {0, 3, true},   {1, 1, false},      {2, 3, false},
    {16, 1, true},  {16, 3, false}, {1u << 30, 1, false},
};

void SweepInstance(uint64_t seed, ThreadPool* pool, Tally* tally) {
  Rng rng(seed);
  const bool numeric = seed % 3 == 2;
  const Dataset data = DuplicateHeavy(rng, numeric);
  const SimilaritySpace space = SpaceFor(data, rng);
  const MatrixOverlay overlay = MakeRandomOverlay(space, rng, 0.3);
  const size_t page_sizes[] = {512, 1024, 2048};
  SimulatedDisk disk(page_sizes[rng.Uniform(3)]);
  const uint64_t memory_pages = 2 + rng.Uniform(4);
  const std::vector<Object> queries = {SampleRowQuery(data, rng),
                                       SampleUniformQuery(data, rng)};
  for (Algorithm algo :
       {Algorithm::kSRS, Algorithm::kTileSRS, Algorithm::kBRS}) {
    auto prep = PrepareDataset(&disk, data, algo, {});
    if (!prep.ok()) {
      std::fprintf(stderr, "seed %llu: prepare failed: %s\n",
                   static_cast<unsigned long long>(seed),
                   prep.status().ToString().c_str());
      ++tally->mismatches;
      return;
    }
    if (algo == Algorithm::kSRS) {
      tally->long_runs += LongRunsInBatches(prep->stored, memory_pages);
    }
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      RSOptions scalar;
      scalar.use_kernels = false;
      scalar.memory.pages = memory_pages;
      if (qi == 1) scalar.selected_attrs = {0, 1};
      if (seed % 2 == 1) scalar.overlay = &overlay;
      auto want = RunReverseSkyline(*prep, space, queries[qi], algo, scalar);
      if (!want.ok()) {
        ++tally->mismatches;
        continue;
      }
      for (const Variation& v : kVariations) {
        RSOptions opts = scalar;
        opts.use_kernels = true;
        opts.kernel_promote_rows = v.promote;
        opts.num_threads = v.threads;
        ExecContext exec;
        exec.executor = pool;
        ForceScalarKernelDispatchForTest(v.force_scalar);
        auto got =
            RunReverseSkyline(*prep, space, queries[qi], algo, opts, exec);
        ForceScalarKernelDispatchForTest(false);
        ++tally->runs;
        if (!got.ok() || !SameAnswer(*got, *want)) {
          ++tally->mismatches;
          std::fprintf(
              stderr,
              "MISMATCH seed=%llu algo=%s query=%zu promote=%u threads=%d "
              "forced=%d: checks %llu vs %llu, pairs %llu vs %llu, rows %zu "
              "vs %zu\n",
              static_cast<unsigned long long>(seed),
              std::string(AlgorithmName(algo)).c_str(), qi, v.promote,
              v.threads, v.force_scalar ? 1 : 0,
              static_cast<unsigned long long>(got.ok() ? got->stats.checks
                                                       : 0),
              static_cast<unsigned long long>(want->stats.checks),
              static_cast<unsigned long long>(
                  got.ok() ? got->stats.pair_tests : 0),
              static_cast<unsigned long long>(want->stats.pair_tests),
              got.ok() ? got->rows.size() : 0, want->rows.size());
        }
      }
    }
  }
}

}  // namespace
}  // namespace nmrs

int main() {
  nmrs::Tally tally;
  nmrs::ThreadPool pool(2);
  for (uint64_t seed = 1; seed <= 9; ++seed) {
    nmrs::SweepInstance(seed, &pool, &tally);
  }
  std::printf("run_collapse_sweep: %llu runs, %llu mismatches, %llu runs of "
              "more than 32 rows in collapsing batches\n",
              static_cast<unsigned long long>(tally.runs),
              static_cast<unsigned long long>(tally.mismatches),
              static_cast<unsigned long long>(tally.long_runs));
  if (tally.long_runs == 0) {
    std::printf("run_collapse_sweep: FAILED coverage: no collapsed run "
                "longer than 32 rows\n");
    return 1;
  }
  if (tally.mismatches != 0) {
    std::printf("run_collapse_sweep: FAILED\n");
    return 1;
  }
  std::printf("run_collapse_sweep: OK\n");
  return 0;
}
