#include "exec/query_engine.h"

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "common/sync.h"
#include "data/generators.h"
#include "exec/thread_pool.h"
#include "gtest/gtest.h"
#include "shard/shard_plan.h"
#include "storage/disk_view.h"
#include "testing/test_util.h"

namespace nmrs {
namespace {

using testing::RandomInstance;

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  WaitGroup wg;
  constexpr int kTasks = 500;
  wg.Add(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      count.fetch_add(1);
      wg.Done();
    });
  }
  wg.Wait();
  EXPECT_EQ(count.load(), kTasks);
}

TEST(ThreadPoolTest, WorkerIndexIsStableAndScoped) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.CurrentWorkerIndex(), -1);  // not a pool thread
  std::atomic<bool> ok{true};
  WaitGroup wg;
  constexpr int kTasks = 64;
  wg.Add(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      const int w = pool.CurrentWorkerIndex();
      if (w < 0 || w >= 3) ok.store(false);
      wg.Done();
    });
  }
  wg.Wait();
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelChunksTest, CoversEveryChunkExactlyOnce) {
  constexpr size_t kChunks = 57;
  // Without an executor (temporary threads) and with a pool.
  {
    std::vector<std::atomic<int>> hits(kChunks);
    ParallelChunks(nullptr, 4, kChunks,
                   [&](size_t c) { hits[c].fetch_add(1); });
    for (size_t c = 0; c < kChunks; ++c) EXPECT_EQ(hits[c].load(), 1);
  }
  {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(kChunks);
    ParallelChunks(&pool, 4, kChunks,
                   [&](size_t c) { hits[c].fetch_add(1); });
    for (size_t c = 0; c < kChunks; ++c) EXPECT_EQ(hits[c].load(), 1);
  }
}

TEST(DiskViewTest, ReadsBaseFilesChargingViewStats) {
  SimulatedDisk base;
  const FileId f = base.CreateFile("data");
  Page page(base.page_size());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(base.AppendPage(f, page).ok());
  base.ResetStats();

  DiskView view(&base);
  Page out(0);
  ASSERT_TRUE(view.ReadPage(f, 0, &out).ok());
  ASSERT_TRUE(view.ReadPage(f, 1, &out).ok());
  EXPECT_EQ(out.size(), base.page_size());
  // First read random, second sequential — charged to the view only.
  EXPECT_EQ(view.stats().rand_reads, 1u);
  EXPECT_EQ(view.stats().seq_reads, 1u);
  EXPECT_EQ(base.stats().Total(), 0u);
}

TEST(DiskViewTest, RejectsWritesToBaseFiles) {
  SimulatedDisk base;
  const FileId f = base.CreateFile("data");
  Page page(base.page_size());
  ASSERT_TRUE(base.AppendPage(f, page).ok());

  DiskView view(&base);
  EXPECT_EQ(view.WritePage(f, 0, page).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(view.DeleteFile(f).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(view.TruncateFile(f).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(view.AppendPage(f, page).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(DiskViewTest, LocalScratchFilesAreWritableAndDoNotCollide) {
  SimulatedDisk base;
  const FileId f = base.CreateFile("data");
  Page page(base.page_size());
  ASSERT_TRUE(base.AppendPage(f, page).ok());

  DiskView view(&base);
  const FileId scratch = view.CreateFile("scratch");
  EXPECT_GE(scratch, base.next_file_id());
  EXPECT_FALSE(base.FileExists(scratch));
  ASSERT_TRUE(view.AppendPage(scratch, page).ok());
  EXPECT_EQ(view.NumPages(scratch), 1u);
  EXPECT_EQ(view.NumPages(f), 1u);
  EXPECT_EQ(view.TotalPages(), 2u);
  Page out(0);
  ASSERT_TRUE(view.ReadPage(scratch, 0, &out).ok());
  ASSERT_TRUE(view.DeleteFile(scratch).ok());
  EXPECT_FALSE(view.FileExists(scratch));
  EXPECT_TRUE(view.FileExists(f));
}

TEST(DiskViewTest, ViewsKeepIndependentArmPositions) {
  SimulatedDisk base;
  const FileId f = base.CreateFile("data");
  Page page(base.page_size());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(base.AppendPage(f, page).ok());

  DiskView a(&base);
  DiskView b(&base);
  Page out(0);
  ASSERT_TRUE(a.ReadPage(f, 0, &out).ok());
  ASSERT_TRUE(a.ReadPage(f, 1, &out).ok());
  ASSERT_TRUE(b.ReadPage(f, 2, &out).ok());  // fresh arm: random
  ASSERT_TRUE(a.ReadPage(f, 2, &out).ok());  // continues a's arm: seq
  EXPECT_EQ(a.stats().seq_reads, 2u);
  EXPECT_EQ(a.stats().rand_reads, 1u);
  EXPECT_EQ(b.stats().seq_reads, 0u);
  EXPECT_EQ(b.stats().rand_reads, 1u);
}

// ---------------------------------------------------------------------------
// Determinism regression: the engine must return identical result sets and
// identical aggregate IO totals for 1, 2, and 8 workers (ISSUE 1), and both
// must equal a plain sequential run of every query.
// ---------------------------------------------------------------------------

struct Workload {
  Workload(uint64_t seed, uint64_t rows)
      : instance(seed, rows, {6, 7, 8}) {
    Rng rng(seed * 7919 + 1);
    for (int i = 0; i < 24; ++i) {
      queries.push_back(SampleUniformQuery(instance.data, rng));
    }
  }

  RandomInstance instance;
  std::vector<Object> queries;
};

// Two pages force multiple phase-1/phase-2 batches for BRS and SRS. TRS
// packs these cards' {6, 7, 8} rows into at most 385 AL-Tree nodes (about
// 3 KB), so at the default 32 KiB pages the whole file is one phase-1
// batch and the engine answers TRS resident; on 1 KiB pages (kTrsPageSize)
// the tree misses the budget and TRS keeps its per-query batches.
RSOptions SmallMemory() {
  RSOptions rs;
  rs.memory = MemoryBudget{2};
  return rs;
}

constexpr size_t kTrsPageSize = 1024;

void ExpectBatchesIdentical(const BatchResult& a, const BatchResult& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].rows, b.results[i].rows) << "query " << i;
    EXPECT_EQ(a.results[i].stats.io, b.results[i].stats.io) << "query " << i;
    EXPECT_EQ(a.results[i].stats.checks, b.results[i].stats.checks)
        << "query " << i;
  }
  EXPECT_EQ(a.total_io, b.total_io);
}

// Sequential ground truth, charged to a dedicated view so the base disk
// stays frozen.
std::vector<ReverseSkylineResult> RunSequential(
    const PreparedDataset& prepared, const SimilaritySpace& space,
    Algorithm algo, const std::vector<Object>& queries, const RSOptions& rs) {
  DiskView view(prepared.stored.disk());
  PreparedDataset local{StoredDataset(&view, prepared.stored.file(),
                                      prepared.stored.schema(),
                                      prepared.stored.num_rows()),
                        prepared.attr_order, 0};
  std::vector<ReverseSkylineResult> out;
  for (const Object& q : queries) {
    auto r = RunReverseSkyline(local, space, q, algo, rs);
    EXPECT_TRUE(r.ok()) << r.status();
    if (r.ok()) out.push_back(std::move(*r));
  }
  return out;
}

TEST(QueryEngineTest, WorkerCountDoesNotChangeResultsOrIo) {
  Workload wl(97, 5000);
  for (Algorithm algo :
       {Algorithm::kBRS, Algorithm::kSRS, Algorithm::kTRS}) {
    const bool trs = algo == Algorithm::kTRS;
    SimulatedDisk disk(trs ? kTrsPageSize : kDefaultPageSize);
    auto prepared = PrepareDataset(&disk, wl.instance.data, algo);
    ASSERT_TRUE(prepared.ok()) << prepared.status();

    const std::vector<ReverseSkylineResult> expected = RunSequential(
        *prepared, wl.instance.space, algo, wl.queries, SmallMemory());
    ASSERT_EQ(expected.size(), wl.queries.size());
    IoStats expected_io;
    for (const ReverseSkylineResult& r : expected) expected_io += r.stats.io;
    // A one-shard TRS engine's first batch tries its shard tree under the
    // budget, through a clean view, and charges it to total_io alone. The
    // tree misses the budget, so the try stops after one phase-1 batch of
    // pages and keeps nothing: later batches cost the sequential sum.
    IoStats first_batch_io = expected_io;
    if (trs) {
      const testing::ShardIndexBuild index = testing::BuildShardIndexForTest(
          prepared->stored, prepared->attr_order,
          SmallMemory().memory.Bytes(kTrsPageSize));
      ASSERT_FALSE(index.fits)
          << "the TRS tree fits: the engine would answer resident";
      EXPECT_LT(index.io.TotalReads(), prepared->stored.num_pages());
      first_batch_io += index.io;
    }

    BatchResult first;
    bool have_first = false;
    for (size_t workers : {1u, 2u, 8u}) {
      EngineOptions opts;
      opts.num_workers = workers;
      opts.rs = SmallMemory();
      QueryEngine engine(*prepared, wl.instance.space, algo, opts);
      auto batch = engine.RunBatch(wl.queries);
      ASSERT_TRUE(batch.ok()) << batch.status();
      ASSERT_EQ(batch->results.size(), wl.queries.size());

      EXPECT_EQ(batch->total_io, first_batch_io)
          << AlgorithmName(algo) << " with " << workers << " workers";
      auto again = engine.RunBatch(wl.queries);
      ASSERT_TRUE(again.ok()) << again.status();
      EXPECT_EQ(again->total_io, expected_io)
          << AlgorithmName(algo) << " second batch with " << workers
          << " workers";
      EXPECT_EQ(engine.shard_index_bytes(0), 0u) << AlgorithmName(algo);
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(batch->results[i].rows, expected[i].rows)
            << AlgorithmName(algo) << " query " << i << " with " << workers
            << " workers";
        EXPECT_EQ(batch->results[i].stats.io, expected[i].stats.io);
        EXPECT_EQ(batch->results[i].stats.checks, expected[i].stats.checks);
      }

      if (!have_first) {
        first = std::move(*batch);
        have_first = true;
      } else {
        ExpectBatchesIdentical(first, *batch);
      }
    }
  }

  // The resident leg: at 32 KiB pages the TRS tree fits, and every worker
  // count returns the one-batch TRS phase-1 answer with no page read.
  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, wl.instance.data, Algorithm::kTRS);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  RSOptions scalar = SmallMemory();
  scalar.use_kernels = false;
  const std::vector<ReverseSkylineResult> trs = RunSequential(
      *prepared, wl.instance.space, Algorithm::kTRS, wl.queries, scalar);
  ASSERT_EQ(trs.size(), wl.queries.size());
  const IoStats build_io = testing::BuildShardIndexForTest(
                               prepared->stored, prepared->attr_order)
                               .io;
  for (size_t workers : {1u, 2u, 8u}) {
    EngineOptions opts;
    opts.num_workers = workers;
    opts.rs = SmallMemory();
    QueryEngine engine(*prepared, wl.instance.space, Algorithm::kTRS, opts);
    auto batch = engine.RunBatch(wl.queries);
    ASSERT_TRUE(batch.ok()) << batch.status();
    EXPECT_EQ(batch->total_io, build_io) << workers << " workers";
    for (size_t i = 0; i < trs.size(); ++i) {
      testing::ExpectResidentTrs(batch->results[i], trs[i],
                                 "resident query " + std::to_string(i) +
                                     " with " + std::to_string(workers) +
                                     " workers");
    }
  }
}

TEST(QueryEngineTest, AggregateIoEqualsSumOfPerQueryIo) {
  Workload wl(31, 3000);
  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, wl.instance.data, Algorithm::kSRS);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EngineOptions opts;
  opts.num_workers = 4;
  opts.rs = SmallMemory();
  QueryEngine engine(*prepared, wl.instance.space, Algorithm::kSRS, opts);
  auto batch = engine.RunBatch(wl.queries);
  ASSERT_TRUE(batch.ok()) << batch.status();

  IoStats sum;
  double busy = 0;
  for (const auto& r : batch->results) sum += r.stats.io;
  for (double w : batch->shard_worker_modeled_millis[0]) busy += w;
  EXPECT_EQ(batch->total_io, sum);
  EXPECT_GT(batch->ModeledMakespanMillis(), 0.0);
  EXPECT_LE(batch->ModeledMakespanMillis(), busy + 1e-9);
  EXPECT_GT(batch->ModeledQps(), 0.0);
}

// Intra-query phase-1 chunking must leave results, check totals, and IO
// bit-identical to the sequential execution.
TEST(QueryEngineTest, IntraQueryParallelismIsDeterministic) {
  Workload wl(7, 5000);
  for (Algorithm algo :
       {Algorithm::kBRS, Algorithm::kSRS, Algorithm::kTRS}) {
    SimulatedDisk seq_disk;
    auto prepared = PrepareDataset(&seq_disk, wl.instance.data, algo);
    ASSERT_TRUE(prepared.ok()) << prepared.status();

    for (const Object& q : wl.queries) {
      DiskView seq_view(&seq_disk);
      PreparedDataset seq_local{
          StoredDataset(&seq_view, prepared->stored.file(),
                        prepared->stored.schema(),
                        prepared->stored.num_rows()),
          prepared->attr_order, 0};
      auto seq = RunReverseSkyline(seq_local, wl.instance.space, q, algo,
                                   SmallMemory());
      ASSERT_TRUE(seq.ok()) << seq.status();

      DiskView par_view(&seq_disk);
      PreparedDataset par_local{
          StoredDataset(&par_view, prepared->stored.file(),
                        prepared->stored.schema(),
                        prepared->stored.num_rows()),
          prepared->attr_order, 0};
      RSOptions par_opts = SmallMemory();
      par_opts.num_threads = 4;  // no executor: temporary threads
      auto par = RunReverseSkyline(par_local, wl.instance.space, q, algo,
                                   par_opts);
      ASSERT_TRUE(par.ok()) << par.status();

      EXPECT_EQ(par->rows, seq->rows) << AlgorithmName(algo);
      EXPECT_EQ(par->stats.checks, seq->stats.checks) << AlgorithmName(algo);
      EXPECT_EQ(par->stats.pair_tests, seq->stats.pair_tests);
      EXPECT_EQ(par->stats.phase1_survivors, seq->stats.phase1_survivors);
      EXPECT_EQ(par->stats.io, seq->stats.io) << AlgorithmName(algo);
    }
  }
}

TEST(QueryEngineTest, EngineWithIntraQueryThreadsMatchesSequential) {
  Workload wl(13, 4000);
  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, wl.instance.data, Algorithm::kTRS);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  EngineOptions plain;
  plain.num_workers = 1;
  plain.rs = SmallMemory();
  QueryEngine engine1(*prepared, wl.instance.space, Algorithm::kTRS, plain);
  auto expected = engine1.RunBatch(wl.queries);
  ASSERT_TRUE(expected.ok()) << expected.status();

  EngineOptions intra;
  intra.num_workers = 4;
  intra.rs = SmallMemory();
  intra.rs.num_threads = 2;  // engine wires its pool as the executor
  QueryEngine engine4(*prepared, wl.instance.space, Algorithm::kTRS, intra);
  auto batch = engine4.RunBatch(wl.queries);
  ASSERT_TRUE(batch.ok()) << batch.status();

  ExpectBatchesIdentical(*expected, *batch);
}

// ---------------------------------------------------------------------------
// Segment stores (docs/CACHING.md, "Segment store"): a BRS/SRS batch builds
// each page of each shard once, however many queries read it and however
// many workers race on it. A page cache that never evicts counts the same
// thing from the other side: its misses are the distinct pages read.
// ---------------------------------------------------------------------------

TEST(SegmentStoreTest, BuildsEachShardPageOncePerBatch) {
  Workload wl(53, 6000);
  for (Algorithm algo : {Algorithm::kSRS, Algorithm::kBRS}) {
    SimulatedDisk disk(kTrsPageSize);
    auto prepared = PrepareDataset(&disk, wl.instance.data, algo);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    for (int shards : {1, 2}) {
      ShardPlanOptions plan;
      plan.num_shards = shards;
      auto sharded = ShardedDataset::Partition(*prepared, plan);
      ASSERT_TRUE(sharded.ok()) << sharded.status();
      BatchResult reference;
      bool have_reference = false;
      for (size_t workers : {1u, 8u}) {
        const std::string leg = std::string(AlgorithmName(algo)) +
                                " shards=" + std::to_string(shards) +
                                " workers=" + std::to_string(workers);
        EngineOptions opts;
        opts.num_workers = workers;
        opts.rs.memory = MemoryBudget{8};
        // Room to spare: the pool's LRU is split into hashed shards.
        opts.cache_pages = 8 * disk.TotalPages();
        QueryEngine engine(*sharded, wl.instance.space, algo, opts);
        for (int b = 0; b < 2; ++b) {
          auto batch = engine.RunBatch(wl.queries);
          ASSERT_TRUE(batch.ok()) << batch.status();
          ASSERT_TRUE(batch->ok()) << batch->first_error();
          ASSERT_EQ(batch->shard_segments_built.size(),
                    static_cast<size_t>(shards));
          for (int s = 0; s < shards; ++s) {
            const uint64_t pages = sharded->shard(s).num_pages();
            // Every query scans its whole shard, so the distinct pages
            // read are all of them; the first batch's cache misses
            // count them independently. The store lives for one batch,
            // so the second batch builds them again.
            EXPECT_EQ(batch->shard_segments_built[s], pages)
                << leg << " batch " << b << " shard " << s;
            if (b == 0) {
              EXPECT_EQ(engine.buffer_pool(s)->stats().evictions, 0u)
                  << leg << " shard " << s;
              EXPECT_EQ(engine.buffer_pool(s)->stats().misses, pages)
                  << leg << " shard " << s;
            }
          }
          if (!have_reference) {
            reference = std::move(*batch);
            have_reference = true;
            continue;
          }
          EXPECT_EQ(batch->shard_segments_built,
                    reference.shard_segments_built)
              << leg;
          for (size_t i = 0; i < wl.queries.size(); ++i) {
            EXPECT_EQ(batch->results[i].rows, reference.results[i].rows)
                << leg << " query " << i;
            EXPECT_EQ(batch->results[i].stats.checks,
                      reference.results[i].stats.checks)
                << leg << " query " << i;
          }
        }
      }
    }
  }
}

TEST(SegmentStoreTest, OnlyKernelBlockScansGetAStore) {
  Workload wl(59, 3000);
  SimulatedDisk disk(kTrsPageSize);
  for (Algorithm algo : {Algorithm::kNaive, Algorithm::kTRS,
                         Algorithm::kSRS}) {
    auto prepared = PrepareDataset(&disk, wl.instance.data, algo);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    for (bool kernels : {true, false}) {
      EngineOptions opts;
      opts.num_workers = 2;
      opts.rs.memory = MemoryBudget{4};
      opts.rs.use_kernels = kernels;
      QueryEngine engine(*prepared, wl.instance.space, algo, opts);
      auto batch = engine.RunBatch(
          std::vector<Object>(wl.queries.begin(), wl.queries.begin() + 4));
      ASSERT_TRUE(batch.ok()) << batch.status();
      ASSERT_TRUE(batch->ok()) << batch->first_error();
      const uint64_t want = algo == Algorithm::kSRS && kernels
                                ? prepared->stored.num_pages()
                                : 0;
      EXPECT_EQ(batch->shard_segments_built, std::vector<uint64_t>{want})
          << AlgorithmName(algo) << " kernels=" << kernels;
    }
  }
}

// ---------------------------------------------------------------------------
// Resilience policies the engine's IO accounting cannot represent are
// rejected up front rather than clamped.
// ---------------------------------------------------------------------------

class ResiliencePolicyTest : public ::testing::Test {
 protected:
  ResiliencePolicyTest() : instance_(20260808, 2000, {6, 9, 13}) {
    Rng rng(314);
    for (int i = 0; i < 12; ++i) {
      queries_.push_back(SampleUniformQuery(instance_.data, rng));
    }
  }

  RandomInstance instance_;
  std::vector<Object> queries_;
};

TEST_F(ResiliencePolicyTest, RejectsPoliciesTheAccountingCannotRepresent) {
  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, instance_.data, Algorithm::kBRS);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  // replicas beyond IoStats::kMaxReplicas used to be silently clamped —
  // replica 9+ would neither serve reads nor appear in replica_reads.
  for (const int replicas : {0, -2, 9, 100}) {
    EngineOptions opts;
    opts.rs.memory = MemoryBudget{2};
    opts.num_workers = 1;
    opts.rs.resilience.replicas = replicas;
    QueryEngine engine(*prepared, instance_.space, Algorithm::kBRS, opts);
    auto batch = engine.RunBatch(queries_);
    ASSERT_FALSE(batch.ok()) << "replicas=" << replicas;
    EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument)
        << batch.status();
  }
  {
    EngineOptions opts;
    opts.rs.memory = MemoryBudget{2};
    opts.num_workers = 1;
    opts.rs.resilience.retry.max_attempts = 0;
    QueryEngine engine(*prepared, instance_.space, Algorithm::kBRS, opts);
    auto batch = engine.RunBatch(queries_);
    ASSERT_FALSE(batch.ok());
    EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
  }
  // The full allowed range still runs.
  {
    EngineOptions opts;
    opts.rs.memory = MemoryBudget{2};
    opts.num_workers = 1;
    opts.rs.resilience.replicas = static_cast<int>(IoStats::kMaxReplicas);
    QueryEngine engine(*prepared, instance_.space, Algorithm::kBRS, opts);
    auto batch = engine.RunBatch({queries_[0]});
    ASSERT_TRUE(batch.ok()) << batch.status();
    EXPECT_TRUE(batch->ok());
  }
}

}  // namespace
}  // namespace nmrs
