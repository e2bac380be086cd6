// Run sweep: SRS, T-SRS and BRS on the kernel path against the scalar
// path (RSOptions::use_kernels = false, the seed loops) on data with and
// without runs of identical rows. The kernels' lanes are run heads, a
// distinct row being a run of length 1 (docs/KERNELS.md, "Runs of
// identical rows").
//
// Inputs: seeded schemas of three shapes, some with one numeric attribute
// drawn from a two-value pool (so rows with equal categorical values sit
// in one run or split on the numeric):
// - duplicate-heavy: 2-4 categorical attributes of 2-4 values, so runs
//   longer than 32 rows straddle lane windows, pages and phase-1 batches;
// - sparse duplicates: 4-5 attributes of 6-10 values, a fifth of the rows
//   repeated 1-4 times, so the mean run length is below 2 and 32-head
//   windows mix length-1 runs with longer ones;
// - all distinct: every row differs, so every run has length 1.
// Random asymmetric matrices, some with non-zero diagonal entries; small
// pages and 2-5 page memory budgets. Per instance: a query equal to a row
// and a uniform one, all attributes or a subset, with and without an
// overlay; per run: the promotion thresholds 0, 1, 2, 16 and never, 1 and
// 3 phase-1 threads, and both lane dispatches.
//
// Rows, checks, pair tests, phase-1/phase-2 checks, survivors and IO must
// equal the scalar run's. Coverage checks make sure runs longer than 32
// rows, windows mixing length-1 and longer runs inside batches of mean run
// length below 2, and batches of distinct rows all occurred.
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
  // Over the SRS phase-1 batches: runs longer than 32 rows, 32-head
  // windows holding length-1 and longer runs in batches of mean run length
  // below 2, and batches whose runs all have length 1.
  uint64_t long_runs = 0;
  uint64_t mixed_windows = 0;
  uint64_t distinct_batches = 0;
};

enum class Shape { kDuplicateHeavy, kSparseDuplicates, kAllDistinct };

Dataset MakeData(Rng& rng, Shape shape, bool numeric) {
  const bool heavy = shape == Shape::kDuplicateHeavy;
  const size_t m = heavy ? 2 + rng.Uniform(3) : 4 + rng.Uniform(2);
  Schema schema;
  size_t combos = 1;
  for (size_t a = 0; a < m; ++a) {
    AttributeInfo info;
    info.name = "c" + std::to_string(a);
    info.cardinality = heavy ? 2 + rng.Uniform(3) : 6 + rng.Uniform(5);
    combos *= info.cardinality;
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
  std::vector<ValueId> values(schema.num_attributes(), 0);
  std::vector<double> numerics(schema.num_attributes(), 0.0);
  auto append = [&]() {
    if (numeric) {
      data.AppendRow(values, numerics);
    } else {
      data.AppendCategoricalRow(values);
    }
  };
  if (shape == Shape::kAllDistinct) {
    // Distinct categorical combinations, in random order.
    std::vector<uint64_t> codes(combos);
    for (uint64_t c = 0; c < combos; ++c) codes[c] = c;
    rng.Shuffle(codes);
    codes.resize(std::min<uint64_t>(combos, 900 + rng.Uniform(1200)));
    for (uint64_t code : codes) {
      for (size_t a = 0; a < m; ++a) {
        const size_t card =
            schema.attribute(static_cast<AttrId>(a)).cardinality;
        values[a] = static_cast<ValueId>(code % card);
        code /= card;
      }
      if (numeric) numerics[m] = rng.Bernoulli(0.7) ? 2.5 : 7.5;
      append();
    }
    return data;
  }
  const uint64_t rows =
      heavy ? 900 + rng.Uniform(1200) : 700 + rng.Uniform(600);
  for (uint64_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < m; ++a) {
      values[a] = static_cast<ValueId>(
          rng.Uniform(schema.attribute(static_cast<AttrId>(a)).cardinality));
    }
    if (numeric) numerics[m] = rng.Bernoulli(0.7) ? 2.5 : 7.5;
    append();
    // Sparse duplicates: some rows repeat, and sorting makes the copies a
    // run.
    const uint64_t copies =
        !heavy && rng.Bernoulli(0.2) ? 1 + rng.Uniform(4) : 0;
    for (uint64_t c = 0; c < copies; ++c) append();
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

// Adds the run coverage of `stored`'s phase-1 batches under a
// `memory_pages` budget to the tally.
void CountRunCoverage(const StoredDataset& stored, uint64_t memory_pages,
                      Tally* tally) {
  const Schema& schema = stored.schema();
  constexpr size_t kWindow = DominanceKernel::kBlockRows;
  for (PageId start = 0; start < stored.num_pages(); start += memory_pages) {
    RowBatch batch(schema.num_attributes(), schema.NumNumeric() > 0);
    const PageId end = std::min<PageId>(start + memory_pages,
                                        stored.num_pages());
    for (PageId p = start; p < end; ++p) {
      if (!stored.ReadPage(p, &batch).ok()) return;
    }
    ColumnarBatch cols;
    cols.Build(batch);
    const size_t runs = cols.num_runs();
    tally->distinct_batches += runs == cols.size();
    const bool sparse = runs * 2 > cols.size();
    for (size_t base = 0; base < runs; base += kWindow) {
      size_t singles = 0, longer = 0;
      for (size_t r = base; r < std::min(base + kWindow, runs); ++r) {
        const size_t len = cols.run_start(r + 1) - cols.run_start(r);
        tally->long_runs += len > 32;
        ++(len == 1 ? singles : longer);
      }
      tally->mixed_windows += sparse && singles > 0 && longer > 0;
    }
  }
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

void SweepInstance(uint64_t seed, Shape shape, ThreadPool* pool,
                   Tally* tally) {
  Rng rng(seed);
  const bool numeric = seed % 3 == 2;
  const Dataset data = MakeData(rng, shape, numeric);
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
      CountRunCoverage(prep->stored, memory_pages, tally);
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
  using nmrs::Shape;
  nmrs::Tally tally;
  nmrs::ThreadPool pool(2);
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    const Shape shape = seed <= 9    ? Shape::kDuplicateHeavy
                        : seed <= 13 ? Shape::kSparseDuplicates
                                     : Shape::kAllDistinct;
    nmrs::SweepInstance(seed, shape, &pool, &tally);
  }
  std::printf("run_collapse_sweep: %llu runs, %llu mismatches; %llu runs of "
              "more than 32 rows, %llu mixed windows in sparse batches, "
              "%llu distinct batches\n",
              static_cast<unsigned long long>(tally.runs),
              static_cast<unsigned long long>(tally.mismatches),
              static_cast<unsigned long long>(tally.long_runs),
              static_cast<unsigned long long>(tally.mixed_windows),
              static_cast<unsigned long long>(tally.distinct_batches));
  if (tally.long_runs == 0 || tally.mixed_windows == 0 ||
      tally.distinct_batches == 0) {
    std::printf("run_collapse_sweep: FAILED coverage: need runs longer than "
                "32 rows, mixed windows in sparse batches and distinct "
                "batches\n");
    return 1;
  }
  if (tally.mismatches != 0) {
    std::printf("run_collapse_sweep: FAILED\n");
    return 1;
  }
  std::printf("run_collapse_sweep: OK\n");
  return 0;
}
