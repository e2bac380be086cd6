#include <string>
#include <string_view>
#include <vector>

#include "data/generators.h"
#include "exec/query_engine.h"
#include "gtest/gtest.h"
#include "storage/disk_view.h"
#include "testing/test_util.h"

namespace nmrs {
namespace {

using testing::RandomInstance;

// ---------------------------------------------------------------------------
// Cache determinism regression (ISSUE 2): enabling the shared buffer pool
// must never change *what* a query returns, only what the reads cost.
// Concretely:
//   - result rows and dominance-check counts are bit-identical with the
//     pool on or off, at 1 and 8 workers;
//   - with a no-eviction cache (capacity >= dataset pages), total charged
//     reads/writes are invariant across worker counts, and the pool's
//     misses equal the number of distinct dataset pages (single-flight);
//   - charged reads with the cache never exceed the uncached run;
//   - at 1 worker any fixed configuration is exactly reproducible.
// See docs/CACHING.md for why per-query IO attribution and the seq/rand
// split are excluded at >1 worker.
// ---------------------------------------------------------------------------

struct Workload {
  Workload(uint64_t seed, uint64_t rows)
      : instance(seed, rows, {6, 7, 8}) {
    Rng rng(seed * 7919 + 1);
    for (int i = 0; i < 16; ++i) {
      queries.push_back(SampleUniformQuery(instance.data, rng));
    }
  }

  RandomInstance instance;
  std::vector<Object> queries;
};

// Two pages force multiple phase-1/phase-2 batches for BRS and SRS. TRS
// packs these cards' {6, 7, 8} rows into at most 385 AL-Tree nodes (about
// 3 KB): at the default 32 KiB pages the tree fits and the engine answers
// TRS resident, reading no page per query. On 1 KiB pages (PageSize) it
// misses the budget, so TRS keeps its batches and reads through the cache.
RSOptions SmallMemory() {
  RSOptions rs;
  rs.memory = MemoryBudget{2};
  return rs;
}

size_t PageSize(Algorithm algo) {
  return algo == Algorithm::kTRS ? 1024 : kDefaultPageSize;
}

BatchResult RunWith(const PreparedDataset& prepared,
                    const SimilaritySpace& space, Algorithm algo,
                    const std::vector<Object>& queries, size_t workers,
                    uint64_t cache_pages) {
  EngineOptions opts;
  opts.num_workers = workers;
  opts.rs = SmallMemory();
  opts.cache_pages = cache_pages;
  QueryEngine engine(prepared, space, algo, opts);
  auto batch = engine.RunBatch(queries);
  EXPECT_TRUE(batch.ok()) << batch.status();
  return std::move(*batch);
}

void ExpectSameAnswers(const BatchResult& got, const BatchResult& want,
                       std::string_view label) {
  ASSERT_EQ(got.results.size(), want.results.size());
  for (size_t i = 0; i < got.results.size(); ++i) {
    EXPECT_EQ(got.results[i].rows, want.results[i].rows)
        << label << " query " << i;
    EXPECT_EQ(got.results[i].stats.checks, want.results[i].stats.checks)
        << label << " query " << i;
  }
}

TEST(CacheDeterminismTest, ResultsIdenticalWithPoolOnAndOff) {
  Workload wl(211, 5000);
  for (Algorithm algo :
       {Algorithm::kBRS, Algorithm::kSRS, Algorithm::kTRS}) {
    SimulatedDisk disk(PageSize(algo));
    auto prepared = PrepareDataset(&disk, wl.instance.data, algo);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    const uint64_t pages = prepared->stored.num_pages();

    const BatchResult off =
        RunWith(*prepared, wl.instance.space, algo, wl.queries, 1, 0);
    for (size_t workers : {1u, 8u}) {
      for (uint64_t capacity : {pages, pages / 4 + 1}) {
        const BatchResult on = RunWith(*prepared, wl.instance.space, algo,
                                       wl.queries, workers, capacity);
        ExpectSameAnswers(on, off, AlgorithmName(algo));
        // A cache can only remove charged reads, never add them; writes
        // (per-query scratch spills, which bypass the pool) are untouched.
        EXPECT_LE(on.total_io.TotalReads(), off.total_io.TotalReads())
            << AlgorithmName(algo) << " workers=" << workers
            << " capacity=" << capacity;
        EXPECT_EQ(on.total_io.TotalWrites(), off.total_io.TotalWrites());
      }
    }
  }
}

TEST(CacheDeterminismTest, FullCacheTotalsAreWorkerCountInvariant) {
  Workload wl(212, 5000);
  for (Algorithm algo : {Algorithm::kBRS, Algorithm::kTRS}) {
    SimulatedDisk disk(PageSize(algo));
    auto prepared = PrepareDataset(&disk, wl.instance.data, algo);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    const uint64_t pages = prepared->stored.num_pages();
    // The TRS engine's one-time try of its tree under the budget reads one
    // phase-1 batch of pages more, through a clean view that bypasses the
    // cache; the tree misses the budget, so nothing is kept.
    IoStats build_io;
    if (algo == Algorithm::kTRS) {
      const testing::ShardIndexBuild index = testing::BuildShardIndexForTest(
          prepared->stored, prepared->attr_order,
          SmallMemory().memory.Bytes(disk.page_size()));
      ASSERT_FALSE(index.fits)
          << "the TRS tree fits: the engine would answer resident";
      EXPECT_LT(index.io.TotalReads(), pages);
      build_io = index.io;
    }

    // Capacity is split evenly across the pool's shards and pages hash to
    // shards, so "never evicts" needs every shard to be able to hold every
    // page: pages * num_shards frames. Then misses == distinct pages
    // touched regardless of how workers interleave (single-flight: the
    // shard mutex is held across the fetch, so exactly one worker is
    // charged per page).
    const uint64_t no_evict = pages * 8;
    const BatchResult one =
        RunWith(*prepared, wl.instance.space, algo, wl.queries, 1, no_evict);
    const BatchResult eight =
        RunWith(*prepared, wl.instance.space, algo, wl.queries, 8, no_evict);

    ExpectSameAnswers(eight, one, AlgorithmName(algo));
    EXPECT_EQ(one.total_io.cache_misses, pages) << AlgorithmName(algo);
    EXPECT_EQ(eight.total_io.cache_misses, pages) << AlgorithmName(algo);
    EXPECT_EQ(one.total_io.cache_evictions, 0u);
    EXPECT_EQ(eight.total_io.cache_evictions, 0u);
    EXPECT_EQ(one.total_io.TotalReads(), eight.total_io.TotalReads())
        << AlgorithmName(algo);
    EXPECT_EQ(one.total_io.TotalWrites(), eight.total_io.TotalWrites())
        << AlgorithmName(algo);
    // Every lookup past the cold set was served from memory: lookups =
    // hits + misses, and only misses reached a disk (all 16 queries scan
    // the same file, so there are far more lookups than pages).
    EXPECT_GT(one.total_io.cache_hits, 0u);
    EXPECT_EQ(one.total_io.cache_hits, eight.total_io.cache_hits);
    IoStats queries_io;
    for (const ReverseSkylineResult& r : one.results) queries_io += r.stats.io;
    queries_io += build_io;
    EXPECT_EQ(one.total_io, queries_io) << AlgorithmName(algo);
  }

  // The resident leg: at 32 KiB pages the TRS tree fits. No query reads a
  // page, so the cache sees no traffic, and each answer is one-batch TRS
  // phase 1 at either worker count.
  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, wl.instance.data, Algorithm::kTRS);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  const uint64_t no_evict = prepared->stored.num_pages() * 8;
  const IoStats build_io = testing::BuildShardIndexForTest(
                               prepared->stored, prepared->attr_order)
                               .io;
  std::vector<ReverseSkylineResult> trs;
  {
    DiskView view(&disk);
    const PreparedDataset local{
        StoredDataset(&view, prepared->stored.file(),
                      prepared->stored.schema(), prepared->stored.num_rows()),
        prepared->attr_order, 0};
    RSOptions scalar = SmallMemory();
    scalar.use_kernels = false;
    for (const Object& q : wl.queries) {
      auto r = RunReverseSkyline(local, wl.instance.space, q,
                                 Algorithm::kTRS, scalar);
      ASSERT_TRUE(r.ok()) << r.status();
      trs.push_back(std::move(*r));
    }
  }
  for (size_t workers : {1u, 8u}) {
    const BatchResult got = RunWith(*prepared, wl.instance.space,
                                    Algorithm::kTRS, wl.queries, workers,
                                    no_evict);
    EXPECT_EQ(got.total_io, build_io) << workers << " workers";
    EXPECT_EQ(got.total_io.cache_hits + got.total_io.cache_misses, 0u);
    for (size_t i = 0; i < trs.size(); ++i) {
      testing::ExpectResidentTrs(got.results[i], trs[i],
                                 "resident query " + std::to_string(i) +
                                     " with " + std::to_string(workers) +
                                     " workers");
    }
  }
}

TEST(CacheDeterminismTest, SingleWorkerRunsAreReproducible) {
  Workload wl(213, 4000);
  SimulatedDisk disk(PageSize(Algorithm::kTRS));
  auto prepared = PrepareDataset(&disk, wl.instance.data, Algorithm::kTRS);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  const uint64_t quarter = prepared->stored.num_pages() / 4 + 1;

  // Under eviction pressure the totals depend on the access interleaving —
  // but with one worker there is only one interleaving, so two runs of the
  // same configuration must match IoStats field for field.
  const BatchResult a = RunWith(*prepared, wl.instance.space,
                                Algorithm::kTRS, wl.queries, 1, quarter);
  const BatchResult b = RunWith(*prepared, wl.instance.space,
                                Algorithm::kTRS, wl.queries, 1, quarter);
  ExpectSameAnswers(a, b, "trs");
  EXPECT_EQ(a.total_io, b.total_io);
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].stats.io, b.results[i].stats.io) << "query " << i;
  }
}

TEST(CacheDeterminismTest, EnginePoolStatsMatchBatchTotals) {
  Workload wl(214, 3000);
  SimulatedDisk disk;
  auto prepared =
      PrepareDataset(&disk, wl.instance.data, Algorithm::kBRS);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  EngineOptions opts;
  opts.num_workers = 4;
  opts.rs = SmallMemory();
  opts.cache_pages = prepared->stored.num_pages() * 8;
  QueryEngine engine(*prepared, wl.instance.space, Algorithm::kBRS, opts);
  ASSERT_NE(engine.buffer_pool(), nullptr);
  auto batch = engine.RunBatch(wl.queries);
  ASSERT_TRUE(batch.ok()) << batch.status();

  // The pool's own counters and the per-query accumulated cache fields are
  // two views of the same events.
  const CacheStats pool_stats = engine.buffer_pool()->stats();
  EXPECT_EQ(pool_stats.hits, batch->total_io.cache_hits);
  EXPECT_EQ(pool_stats.misses, batch->total_io.cache_misses);
  EXPECT_EQ(pool_stats.evictions, batch->total_io.cache_evictions);
  EXPECT_GT(batch->total_io.CacheHitRatio(), 0.0);
}

TEST(CacheDeterminismTest, NoCacheEngineIsSeedIdentical) {
  // cache_pages == 0 must leave the engine bit-identical to the pre-cache
  // behavior: no pool object, no cache fields in any stats.
  Workload wl(215, 2000);
  SimulatedDisk disk;
  auto prepared =
      PrepareDataset(&disk, wl.instance.data, Algorithm::kTRS);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  EngineOptions opts;
  opts.num_workers = 2;
  opts.rs = SmallMemory();
  QueryEngine engine(*prepared, wl.instance.space, Algorithm::kTRS, opts);
  EXPECT_EQ(engine.buffer_pool(), nullptr);
  auto batch = engine.RunBatch(wl.queries);
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(batch->total_io.cache_hits, 0u);
  EXPECT_EQ(batch->total_io.cache_misses, 0u);
  EXPECT_EQ(batch->total_io.cache_evictions, 0u);
}

}  // namespace
}  // namespace nmrs
