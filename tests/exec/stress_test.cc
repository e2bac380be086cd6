// Concurrency stress for the parallel query engine, meant to run under
// ThreadSanitizer (cmake -DNMRS_TSAN=ON, see ci.sh) as well as in plain
// builds. Deliberately gtest-free: the TSan build then only contains
// instrumented nmrs code, avoiding false positives from uninstrumented
// prebuilt test libraries. Exits 0 on success, aborts on any violation.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/sync.h"
#include "data/generators.h"
#include "db/database.h"
#include "exec/query_engine.h"
#include "exec/thread_pool.h"
#include "shard/shard_plan.h"
#include "sim/dissimilarity_matrix.h"
#include "sim/matrix_overlay.h"
#include "storage/buffer_pool.h"
#include "storage/disk_view.h"
#include "storage/paged_reader.h"

namespace nmrs {
namespace {

// Hammer the work-stealing pool, including tasks that submit nested tasks
// (the shape ParallelChunks produces from inside a pool worker).
void StressThreadPool() {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  WaitGroup wg;
  constexpr int kOuter = 200;
  constexpr int kInner = 10;
  wg.Add(kOuter * (1 + kInner));
  for (int i = 0; i < kOuter; ++i) {
    pool.Submit([&] {
      count.fetch_add(1);
      for (int j = 0; j < kInner; ++j) {
        pool.Submit([&] {
          count.fetch_add(1);
          wg.Done();
        });
      }
      wg.Done();
    });
  }
  wg.Wait();
  NMRS_CHECK_EQ(count.load(), kOuter * (1 + kInner));
  std::printf("pool stress: %d tasks ok\n", count.load());
}

// Concurrent ReadPage on one shared SimulatedDisk: the accounting mutex
// must keep counters exact (the seq/rand split depends on interleaving,
// the total must not).
void StressSharedDiskReaders() {
  SimulatedDisk disk;
  const FileId f = disk.CreateFile("shared");
  Page page(disk.page_size());
  constexpr uint64_t kPages = 8;
  for (uint64_t p = 0; p < kPages; ++p) {
    NMRS_CHECK(disk.AppendPage(f, page).ok());
  }
  disk.ResetStats();

  constexpr int kThreads = 8;
  constexpr int kReadsPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&disk, f, t] {
      Page out(0);
      for (int i = 0; i < kReadsPerThread; ++i) {
        NMRS_CHECK(
            disk.ReadPage(f, static_cast<PageId>((t + i) % kPages), &out)
                .ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  NMRS_CHECK_EQ(disk.stats().TotalReads(),
                static_cast<uint64_t>(kThreads) * kReadsPerThread);
  std::printf("shared-disk readers: %llu reads ok\n",
              static_cast<unsigned long long>(disk.stats().TotalReads()));
}

// Concurrent DiskViews over one frozen base: reads plus view-local scratch
// writes, with per-view accounting staying exact.
void StressDiskViews() {
  SimulatedDisk base;
  const FileId f = base.CreateFile("base");
  Page page(base.page_size());
  constexpr uint64_t kPages = 16;
  for (uint64_t p = 0; p < kPages; ++p) {
    NMRS_CHECK(base.AppendPage(f, page).ok());
  }
  base.ResetStats();

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&base, f] {
      DiskView view(&base);
      Page out(0);
      const FileId scratch = view.CreateFile("scratch");
      for (int round = 0; round < 50; ++round) {
        for (uint64_t p = 0; p < kPages; ++p) {
          NMRS_CHECK(view.ReadPage(f, p, &out).ok());
        }
        NMRS_CHECK(view.AppendPage(scratch, out).ok());
      }
      NMRS_CHECK_EQ(view.stats().TotalReads(), 50u * kPages);
      NMRS_CHECK_EQ(view.stats().TotalWrites(), 50u);
    });
  }
  for (auto& t : threads) t.join();
  NMRS_CHECK_EQ(base.stats().Total(), 0u);  // views never touch base stats
  std::printf("disk views: %d concurrent views ok\n", kThreads);
}

// Hammer one shared BufferPool from 8 threads, each reading through its own
// DiskView + PagedReader and occasionally holding pins, under heavy
// eviction pressure (capacity far below the file size). Checks the pool's
// global accounting against the per-thread sums and the charged disk reads.
void StressSharedBufferPool() {
  SimulatedDisk base;
  const FileId f = base.CreateFile("hot");
  constexpr uint64_t kPages = 64;
  {
    Page page(base.page_size());
    for (uint64_t p = 0; p < kPages; ++p) {
      page[0] = static_cast<uint8_t>(p);
      NMRS_CHECK(base.AppendPage(f, page).ok());
    }
  }
  base.ResetStats();

  BufferPoolOptions opts;
  opts.capacity_pages = kPages / 4;  // heavy eviction pressure
  opts.num_shards = 8;
  BufferPool pool(&base, opts);

  constexpr int kThreads = 8;
  constexpr int kRounds = 400;
  std::vector<CacheStats> per_thread(kThreads);
  std::vector<uint64_t> view_reads(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      DiskView view(&base);
      PagedReader reader(&view, &pool);
      Page out(0);
      for (int round = 0; round < kRounds; ++round) {
        // Mixed access: a short scan, a strided sweep, and a pinned read.
        const PageId start = static_cast<PageId>((t * 13 + round) % kPages);
        for (uint64_t i = 0; i < 6; ++i) {
          const PageId p = (start + i) % kPages;
          NMRS_CHECK(reader.ReadPage(f, p, &out).ok());
          NMRS_CHECK_EQ(out[0], static_cast<uint8_t>(p));
        }
        const PageId strided = (start * 7 + 3) % kPages;
        NMRS_CHECK(reader.ReadPage(f, strided, &out).ok());
        auto pinned = pool.Pin(&view, f, start);
        if (pinned.ok()) {  // a transiently all-pinned shard is legitimate
          NMRS_CHECK_EQ(pinned->page()[0], static_cast<uint8_t>(start));
          pinned->Release();
        } else {
          NMRS_CHECK(pinned.status().IsResourceExhausted())
              << pinned.status();
        }
      }
      per_thread[t] = reader.cache_stats();
      view_reads[t] = view.stats().TotalReads();
    });
  }
  for (auto& t : threads) t.join();

  // Per-reader attribution must add up to the pool's own counters for the
  // traffic that went through the readers (the direct Pin calls are in the
  // pool stats only), and every charged view read must be a reader miss.
  CacheStats reader_sum;
  uint64_t charged = 0;
  for (int t = 0; t < kThreads; ++t) {
    reader_sum += per_thread[t];
    charged += view_reads[t];
  }
  const CacheStats pool_stats = pool.stats();
  NMRS_CHECK_EQ(reader_sum.Lookups(),
                static_cast<uint64_t>(kThreads) * kRounds * 7);
  NMRS_CHECK(pool_stats.Lookups() >= reader_sum.Lookups());
  NMRS_CHECK(pool_stats.misses >= reader_sum.misses);
  // Charged reads = reader misses + direct-Pin misses, nothing else.
  NMRS_CHECK_EQ(charged, pool_stats.misses);
  NMRS_CHECK(pool.PagesCached() <= opts.capacity_pages);
  NMRS_CHECK(base.stats().Total() == 0u);  // views charge themselves
  std::printf("shared buffer pool: %llu lookups, %llu misses, %llu"
              " evictions ok\n",
              static_cast<unsigned long long>(pool_stats.Lookups()),
              static_cast<unsigned long long>(pool_stats.misses),
              static_cast<unsigned long long>(pool_stats.evictions));
}

// The engine path with a shared cache, for BRS and SRS (whose 8-worker
// batch also races on the segment store): results must match the uncached
// engine at every worker count, and total charged reads must not exceed it.
void StressEngineWithSharedCache() {
  Rng rng(99);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  const std::vector<size_t> cards = {6, 7, 8};
  Dataset data = GenerateNormal(4000, cards, data_rng);
  SimilaritySpace space;
  for (size_t card : cards) {
    space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }
  std::vector<Object> queries;
  for (int i = 0; i < 24; ++i) {
    queries.push_back(SampleUniformQuery(data, rng));
  }

  SimulatedDisk disk;
  for (Algorithm algo : {Algorithm::kBRS, Algorithm::kSRS}) {
    auto prepared = PrepareDataset(&disk, data, algo);
    NMRS_CHECK(prepared.ok()) << prepared.status();

    BatchResult uncached;
    {
      EngineOptions opts;
      opts.num_workers = 1;
      opts.rs.memory = MemoryBudget{2};
      QueryEngine engine(*prepared, space, algo, opts);
      auto batch = engine.RunBatch(queries);
      NMRS_CHECK(batch.ok()) << batch.status();
      uncached = std::move(*batch);
    }
    for (size_t workers : {1u, 8u}) {
      EngineOptions opts;
      opts.num_workers = workers;
      opts.rs.memory = MemoryBudget{2};
      opts.cache_pages = prepared->stored.num_pages();  // eviction pressure
      QueryEngine engine(*prepared, space, algo, opts);
      auto batch = engine.RunBatch(queries);
      NMRS_CHECK(batch.ok()) << batch.status();
      for (size_t i = 0; i < queries.size(); ++i) {
        NMRS_CHECK(batch->results[i].rows == uncached.results[i].rows);
      }
      NMRS_CHECK(batch->total_io.TotalReads() <=
                 uncached.total_io.TotalReads());
    }
  }
  std::printf("engine with shared cache: %zu queries identical\n",
              queries.size());
}

// Every counter of QueryStats, wall-clock timers aside.
bool SameCounters(const QueryStats& a, const QueryStats& b) {
  return a.checks == b.checks && a.phase1_checks == b.phase1_checks &&
         a.phase2_checks == b.phase2_checks && a.pair_tests == b.pair_tests &&
         a.kernel_checks == b.kernel_checks &&
         a.kernel_promotions == b.kernel_promotions &&
         a.kernel_scalar_rows == b.kernel_scalar_rows &&
         a.kernel_block_rows == b.kernel_block_rows &&
         a.phase1_batches == b.phase1_batches &&
         a.phase1_survivors == b.phase1_survivors &&
         a.phase2_batches == b.phase2_batches && a.io == b.io &&
         a.modeled_backoff_millis == b.modeled_backoff_millis &&
         a.result_size == b.result_size;
}

// Segment stores under contention: at 8 workers the batch's BRS and SRS
// queries race on the first touch of every page of the shard's store,
// with each query's phase-1 candidates split over 2 intra-query threads on
// the same pool. Two batches per engine, each with its own store. Rows,
// every QueryStats counter and the IO must equal the 1-worker run, and
// every page must be built exactly once per batch.
void StressSegmentStore() {
  Rng rng(8642);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  const std::vector<size_t> cards = {6, 7, 8};
  Dataset data = GenerateNormal(4000, cards, data_rng);
  SimilaritySpace space;
  for (size_t card : cards) {
    space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }
  std::vector<Object> queries;
  for (int i = 0; i < 32; ++i) {
    queries.push_back(SampleUniformQuery(data, rng));
  }
  for (Algorithm algo : {Algorithm::kSRS, Algorithm::kBRS}) {
    SimulatedDisk disk(1024);
    auto prepared = PrepareDataset(&disk, data, algo);
    NMRS_CHECK(prepared.ok()) << prepared.status();
    const uint64_t pages = prepared->stored.num_pages();
    BatchResult reference;
    bool have_reference = false;
    for (size_t workers : {1u, 8u}) {
      EngineOptions opts;
      opts.num_workers = workers;
      opts.rs.memory = MemoryBudget{4};
      opts.rs.num_threads = 2;
      QueryEngine engine(*prepared, space, algo, opts);
      for (int b = 0; b < 2; ++b) {
        auto batch = engine.RunBatch(queries);
        NMRS_CHECK(batch.ok()) << batch.status();
        NMRS_CHECK(batch->ok()) << batch->first_error();
        NMRS_CHECK(batch->shard_segments_built ==
                   std::vector<uint64_t>{pages})
            << AlgorithmName(algo) << " workers " << workers;
        if (!have_reference) {
          reference = std::move(*batch);
          have_reference = true;
          continue;
        }
        NMRS_CHECK(batch->total_io == reference.total_io);
        for (size_t i = 0; i < queries.size(); ++i) {
          NMRS_CHECK(batch->results[i].rows == reference.results[i].rows)
              << AlgorithmName(algo) << " workers " << workers << " query "
              << i;
          NMRS_CHECK(SameCounters(batch->results[i].stats,
                                  reference.results[i].stats))
              << AlgorithmName(algo) << " workers " << workers << " query "
              << i;
        }
      }
    }
  }
  std::printf("segment store: SRS and BRS, %zu queries, each page built "
              "once per batch, identical at 1 and 8 workers\n",
              queries.size());
}

// Runs `queries` through a TRS engine at 1 and at 8 workers and checks
// that rows and IO match. `threads_at_8` is RSOptions::num_threads with 8
// workers; `opts.rs.num_threads` applies with 1. When both are equal the
// phase-1 chunking is too, so checks must match as well. The data sits on
// `page_size`-byte pages; the 1 KiB legs keep the AL-Tree over the memory
// budget, so the engine runs TRS per query (phase-2 batches and all)
// instead of answering resident.
void CheckTrsAcrossWorkers(const Dataset& data, const SimilaritySpace& space,
                           const std::vector<Object>& queries,
                           EngineOptions opts, int threads_at_8,
                           size_t page_size, const char* leg) {
  SimulatedDisk disk(page_size);
  auto prepared = PrepareDataset(&disk, data, Algorithm::kTRS);
  NMRS_CHECK(prepared.ok()) << prepared.status();

  const bool same_chunks = opts.rs.num_threads == threads_at_8;
  BatchResult reference;
  bool have_reference = false;
  for (size_t workers : {1u, 8u}) {
    opts.num_workers = workers;
    if (workers > 1) opts.rs.num_threads = threads_at_8;
    QueryEngine engine(*prepared, space, Algorithm::kTRS, opts);
    auto batch = engine.RunBatch(queries);
    NMRS_CHECK(batch.ok()) << batch.status();
    NMRS_CHECK(batch->ok()) << leg << ": " << batch->first_error();
    for (const ReverseSkylineResult& r : batch->results) {
      NMRS_CHECK(r.stats.io.TotalReads() > 0) << leg << ": answered resident";
    }
    if (!have_reference) {
      reference = std::move(*batch);
      have_reference = true;
      continue;
    }
    NMRS_CHECK(batch->total_io == reference.total_io) << leg;
    for (size_t i = 0; i < queries.size(); ++i) {
      NMRS_CHECK(batch->results[i].rows == reference.results[i].rows)
          << leg << " query " << i;
      NMRS_CHECK(batch->results[i].stats.io == reference.results[i].stats.io)
          << leg << " query " << i;
      NMRS_CHECK(!same_chunks || batch->results[i].stats.checks ==
                                     reference.results[i].stats.checks)
          << leg << " query " << i;
    }
  }
  std::printf("query engine (%s): %zu queries identical across worker "
              "counts\n",
              leg, queries.size());
}

// Full engine: batch fan-out plus intra-query chunks on the same pool,
// checked for worker-count independence. Phase-1 chunks share one
// read-only batch tree, so the legs cover each phase-1 leaf check: the
// kernel probe with its traversal escape, the plain all-categorical search
// (use_kernels = false), and the general search over a mixed schema.
void StressQueryEngine() {
  Rng rng(1234);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  const std::vector<size_t> cards = {6, 7, 8};
  Dataset data = GenerateNormal(4000, cards, data_rng);
  SimilaritySpace space;
  for (size_t card : cards) {
    space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }
  std::vector<Object> queries;
  for (int i = 0; i < 32; ++i) {
    queries.push_back(SampleUniformQuery(data, rng));
  }

  EngineOptions opts;
  opts.rs.memory = MemoryBudget{2};
  CheckTrsAcrossWorkers(data, space, queries, opts, 2, 1024, "kernel probe");

  opts.rs.num_threads = 2;
  EngineOptions scalar = opts;
  scalar.rs.use_kernels = false;
  CheckTrsAcrossWorkers(data, space, queries, scalar, 2, 1024, "no kernels");

  const std::vector<size_t> cat_cards = {5, 4};
  const Dataset mixed = GenerateMixed(3000, cat_cards, 2, 4, data_rng);
  SimilaritySpace mixed_space;
  for (size_t card : cat_cards) {
    mixed_space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }
  for (int i = 0; i < 2; ++i) mixed_space.AddNumeric(NumericDissimilarity());
  std::vector<Object> mixed_queries;
  for (int i = 0; i < 16; ++i) {
    mixed_queries.push_back(SampleUniformQuery(mixed, rng));
  }
  CheckTrsAcrossWorkers(mixed, mixed_space, mixed_queries, opts, 2, 1024,
                        "mixed schema");
}

// Resident TRS at 2 shards: the first batch builds both shards' AL-Trees on
// the pool, the second reads them from every worker at once, each query's
// leaf checks split over 2 intra-query threads on the same pool. Rows and
// checks must be equal across batches and worker counts, and no query may
// read a page.
void StressResidentTrs() {
  Rng rng(2468);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  const std::vector<size_t> cards = {6, 7, 8};
  Dataset data = GenerateNormal(6000, cards, data_rng);
  SimilaritySpace space;
  for (size_t card : cards) {
    space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }
  std::vector<Object> queries;
  for (int i = 0; i < 24; ++i) {
    queries.push_back(SampleUniformQuery(data, rng));
  }
  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, data, Algorithm::kTRS);
  NMRS_CHECK(prepared.ok()) << prepared.status();
  ShardPlanOptions plan;
  plan.num_shards = 2;
  auto sharded = ShardedDataset::Partition(*prepared, plan);
  NMRS_CHECK(sharded.ok()) << sharded.status();

  BatchResult reference;
  bool have_reference = false;
  for (size_t workers : {1u, 8u}) {
    EngineOptions opts;
    opts.num_workers = workers;
    opts.rs.num_threads = 2;
    QueryEngine engine(*sharded, space, Algorithm::kTRS, opts);
    for (int b = 0; b < 2; ++b) {
      auto batch = engine.RunBatch(queries);
      NMRS_CHECK(batch.ok()) << batch.status();
      NMRS_CHECK(batch->ok()) << batch->first_error();
      if (!have_reference) {
        reference = std::move(*batch);
        have_reference = true;
        continue;
      }
      for (size_t i = 0; i < queries.size(); ++i) {
        const QueryStats& st = batch->results[i].stats;
        NMRS_CHECK(batch->results[i].rows == reference.results[i].rows)
            << "workers " << workers << " batch " << b << " query " << i;
        NMRS_CHECK(st.checks == reference.results[i].stats.checks)
            << "workers " << workers << " batch " << b << " query " << i;
        NMRS_CHECK(st.io == IoStats{} && st.phase2_batches == 0)
            << "query " << i << " was not answered resident";
      }
    }
  }
  std::printf("resident TRS: %zu queries x 2 shards, build and reuse "
              "batches at 1 and 8 workers identical\n",
              queries.size());
}

// The fault path under contention: 8 workers share the batch quarantine
// log and fault-counter accounting while transients, bad pages and
// clean-view retries fire. Outcomes must be identical across worker
// counts and runs (the docs/ROBUSTNESS.md determinism contract).
void StressFaultBatch() {
  Rng rng(777);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  const std::vector<size_t> cards = {6, 7, 8};
  Dataset data = GenerateNormal(6000, cards, data_rng);
  SimilaritySpace space;
  for (size_t card : cards) {
    space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }
  std::vector<Object> queries;
  for (int i = 0; i < 32; ++i) {
    queries.push_back(SampleUniformQuery(data, rng));
  }

  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, data, Algorithm::kSRS);
  NMRS_CHECK(prepared.ok()) << prepared.status();

  EngineOptions base;
  base.faults.seed = 4242;
  base.faults.transient_read_p = 0.03;
  base.faults.bad_pages.insert({prepared->stored.file(), 1});
  base.rs.resilience.retry.max_attempts = 2;
  base.max_query_retries = 1;

  BatchResult reference;
  bool have_reference = false;
  for (size_t workers : {1u, 8u, 8u}) {
    EngineOptions opts = base;
    opts.num_workers = workers;
    QueryEngine engine(*prepared, space, Algorithm::kSRS, opts);
    auto batch = engine.RunBatch(queries);
    NMRS_CHECK(batch.ok()) << batch.status();
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!batch->statuses[i].ok()) {
        NMRS_CHECK(batch->statuses[i].IsStorageFault()) << batch->statuses[i];
      }
    }
    if (!have_reference) {
      reference = std::move(*batch);
      have_reference = true;
      continue;
    }
    NMRS_CHECK(batch->total_io == reference.total_io);
    NMRS_CHECK(batch->quarantined == reference.quarantined);
    NMRS_CHECK_EQ(batch->queries_retried, reference.queries_retried);
    for (size_t i = 0; i < queries.size(); ++i) {
      NMRS_CHECK(batch->results[i].rows == reference.results[i].rows);
      NMRS_CHECK(batch->results[i].stats.io == reference.results[i].stats.io);
      NMRS_CHECK(batch->statuses[i].ToString() ==
                 reference.statuses[i].ToString());
    }
  }
  std::printf("fault batch: %zu queries, %llu retried, %zu quarantined, "
              "identical across worker counts\n",
              queries.size(),
              static_cast<unsigned long long>(reference.queries_retried),
              reference.quarantined.size());
}

// Concurrent page-granular failover against one shared BufferPool: every
// thread reads through its own corrupting primary replica with a clean
// failover replica behind it, all routed through the same pool. Failing
// reads evict shared frames while other threads fetch and heal them — the
// shared-cache race the replica layer must survive (and the reason fault
// BATCHES run shared-nothing; standalone readers may still share a pool).
// Every read must come back verified, from whichever replica had good
// bytes.
void StressConcurrentFailover() {
  SimulatedDisk base;
  const FileId f = base.CreateFile("sealed");
  constexpr uint64_t kPages = 64;
  for (uint64_t p = 0; p < kPages; ++p) {
    Page page(base.page_size());
    for (size_t i = 0; i < page.size(); ++i) {
      page[i] = static_cast<uint8_t>(p + i);
    }
    page.Seal();
    NMRS_CHECK(base.AppendPage(f, page).ok());
  }

  BufferPoolOptions popts;
  popts.capacity_pages = 16;  // eviction pressure on top of the healing
  BufferPool pool(&base, popts);

  constexpr int kThreads = 8;
  ReplicaSetOptions rso;
  rso.num_replicas = 2;
  rso.num_workers = kThreads;
  FaultConfig corrupting;
  corrupting.seed = 31337;
  corrupting.corrupt_p = 0.3;
  rso.faults = {corrupting, FaultConfig{}};
  ReplicaSet set(&base, rso);

  std::atomic<uint64_t> failovers{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&set, &pool, &failovers, f, t] {
      std::vector<std::unique_ptr<FaultyDisk>> wrappers;
      auto disks = set.MakeQueryDisks(t, static_cast<uint64_t>(t), &wrappers);
      PagedReaderOptions opts;
      opts.verify_checksums = true;
      opts.failover = {disks[1]};
      PagedReader reader(disks[0], &pool, opts);
      Page out(0);
      for (int i = 0; i < 400; ++i) {
        const PageId p = static_cast<PageId>((t * 7 + i) % kPages);
        NMRS_CHECK(reader.ReadPage(f, p, &out).ok())
            << "thread " << t << " page " << p;
        NMRS_CHECK(out.VerifySeal()) << "thread " << t << " page " << p;
      }
      failovers.fetch_add(reader.failovers(), std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();
  NMRS_CHECK(failovers.load() > 0) << "corrupt_p fired no failover";
  std::printf("concurrent failover: %d threads, %llu failovers, "
              "all reads verified\n",
              kThreads, static_cast<unsigned long long>(failovers.load()));
}

// A replica batch under contention: replica 0 is completely dead, results
// and per-query accounting (failovers included) must still be identical
// across worker counts and repeat runs.
void StressReplicaBatch() {
  Rng rng(888);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  const std::vector<size_t> cards = {6, 7, 8};
  Dataset data = GenerateNormal(6000, cards, data_rng);
  SimilaritySpace space;
  for (size_t card : cards) {
    space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }
  std::vector<Object> queries;
  for (int i = 0; i < 32; ++i) {
    queries.push_back(SampleUniformQuery(data, rng));
  }

  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, data, Algorithm::kSRS);
  NMRS_CHECK(prepared.ok()) << prepared.status();

  EngineOptions base;
  base.rs.resilience.replicas = 2;
  FaultConfig dead;
  dead.seed = 6;
  dead.data_loss_p = 1.0;
  base.replica_faults = {dead, FaultConfig{}};

  BatchResult reference;
  bool have_reference = false;
  for (size_t workers : {1u, 8u, 8u}) {
    EngineOptions opts = base;
    opts.num_workers = workers;
    QueryEngine engine(*prepared, space, Algorithm::kSRS, opts);
    auto batch = engine.RunBatch(queries);
    NMRS_CHECK(batch.ok()) << batch.status();
    NMRS_CHECK(batch->ok()) << batch->first_error();
    if (!have_reference) {
      reference = std::move(*batch);
      have_reference = true;
      continue;
    }
    NMRS_CHECK(batch->total_io == reference.total_io);
    for (size_t i = 0; i < queries.size(); ++i) {
      NMRS_CHECK(batch->results[i].rows == reference.results[i].rows);
      NMRS_CHECK(batch->results[i].stats.io == reference.results[i].stats.io);
    }
  }
  NMRS_CHECK(reference.total_io.failovers > 0);
  std::printf("replica batch: %zu queries over a dead replica, %llu "
              "failovers, identical across worker counts\n",
              queries.size(),
              static_cast<unsigned long long>(reference.total_io.failovers));
}

// The overlay executor under contention: 8 workers share the base batch,
// the classification result, the read-only shard indexes and the
// per-(query, user-group) re-check tasks, with a shared page cache
// underneath. Every (query, user) answer must be bit-identical to
// rebuilding that user's patched space, and invariant across worker
// counts, shard counts and overlay group sizes. Each engine runs two
// batches: the first builds the shard indexes, the second only searches
// them, and both must agree. At 2 z-order shards the searches span both
// trees and the index builds run concurrently. This is the TSan workout
// for the overlay data structures (the shared alive bitmaps, the index
// slots and their concurrent searches, the per-lane modeled-time slots and
// the fold-in of IO).
void StressOverlayBatch() {
  Rng rng(20260809);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  Rng orng = rng.Fork();
  const std::vector<size_t> cards = {6, 7, 8};
  Dataset data = GenerateNormal(3000, cards, data_rng);
  SimilaritySpace space;
  for (size_t card : cards) {
    space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }
  std::vector<Object> queries;
  for (int i = 0; i < 16; ++i) {
    queries.push_back(SampleUniformQuery(data, rng));
  }
  constexpr size_t kUsers = 8;
  std::vector<MatrixOverlay> overlays;
  overlays.reserve(kUsers);
  for (size_t u = 0; u < kUsers; ++u) {
    overlays.push_back(
        MakeRandomOverlay(space, orng, 0.02 + 0.01 * static_cast<double>(u)));
  }
  std::vector<const MatrixOverlay*> ptrs;
  for (const auto& o : overlays) ptrs.push_back(&o);

  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, data, Algorithm::kBRS);
  NMRS_CHECK(prepared.ok()) << prepared.status();
  ShardPlanOptions plan;
  plan.num_shards = 2;
  plan.shard_by = ShardBy::kZOrderRange;
  auto sharded = ShardedDataset::Partition(*prepared, plan);
  NMRS_CHECK(sharded.ok()) << sharded.status();

  // Per-user patched-space rebuild: the correctness oracle.
  std::vector<std::vector<std::vector<RowId>>> want(
      queries.size(), std::vector<std::vector<RowId>>(kUsers));
  for (size_t u = 0; u < kUsers; ++u) {
    SimilaritySpace patched = overlays[u].BuildPatchedSpace();
    EngineOptions opts;
    opts.num_workers = 1;
    QueryEngine engine(*prepared, patched, Algorithm::kBRS, opts);
    auto batch = engine.RunBatch(queries);
    NMRS_CHECK(batch.ok()) << batch.status();
    NMRS_CHECK(batch->ok()) << batch->first_error();
    for (size_t q = 0; q < queries.size(); ++q) {
      want[q][u] = batch->results[q].rows;
    }
  }

  struct Config {
    int shards;
    size_t workers;
  };
  for (const Config c : {Config{1, 1}, Config{1, 8}, Config{1, 8},
                         Config{2, 1}, Config{2, 8}}) {
    const size_t workers = c.workers;
    EngineOptions opts;
    opts.num_workers = workers;
    opts.cache_pages = prepared->stored.num_pages();
    QueryEngine engine =
        c.shards == 1 ? QueryEngine(*prepared, space, Algorithm::kBRS, opts)
                      : QueryEngine(*sharded, space, Algorithm::kBRS, opts);
    auto ob = engine.RunOverlayBatch(queries, ptrs);
    NMRS_CHECK(ob.ok()) << ob.status();
    NMRS_CHECK(ob->ok()) << ob->first_error();
    for (int s = 0; s < engine.num_shards(); ++s) {
      NMRS_CHECK_GT(engine.shard_index_bytes(s), 0u) << "shard " << s;
    }
    for (size_t q = 0; q < queries.size(); ++q) {
      for (size_t u = 0; u < kUsers; ++u) {
        NMRS_CHECK(ob->results[q][u].rows == want[q][u])
            << "shards " << c.shards << " workers " << workers << " query "
            << q << " user " << u;
      }
    }
    NMRS_CHECK_EQ(ob->sensitive_rows + ob->invariant_rows,
                  data.num_rows() * kUsers);

    auto again = engine.RunOverlayBatch(queries, ptrs);
    NMRS_CHECK(again.ok()) << again.status();
    NMRS_CHECK(again->ok()) << again->first_error();
    for (size_t q = 0; q < queries.size(); ++q) {
      for (size_t u = 0; u < kUsers; ++u) {
        NMRS_CHECK(again->results[q][u].rows == ob->results[q][u].rows)
            << "workers " << workers << " query " << q << " user " << u
            << ": the reuse batch diverged";
      }
    }
    NMRS_CHECK_EQ(again->recheck_checks, ob->recheck_checks);
    NMRS_CHECK_EQ(again->recheck_pair_tests, ob->recheck_pair_tests);
    NMRS_CHECK_EQ(again->recheck_scans, ob->recheck_scans);
  }
  std::printf("overlay batch: %zu queries x %zu users identical to "
              "per-user rebuild at 1 and 2 shards, building and reusing the "
              "shard indexes\n",
              queries.size(), kUsers);
}

// Sharded scatter/gather under maximum scheduling pressure: many workers,
// few queries' worth of (query, shard) tasks per phase, a shared cache per
// shard, plus a run with a dead replica 0 — every combination must produce
// the same rows as the 1-shard run and be worker-count invariant. This is
// the TSan workout for the exchange data structures (per-(query, shard)
// slots, verdict bitmaps, the shared quarantine log and IO ledgers).
void StressShardedBatch() {
  Rng rng(4242);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  const std::vector<size_t> cards = {6, 7, 8};
  Dataset data = GenerateNormal(5000, cards, data_rng);
  SimilaritySpace space;
  for (size_t card : cards) {
    space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }
  std::vector<Object> queries;
  for (int i = 0; i < 24; ++i) {
    queries.push_back(SampleUniformQuery(data, rng));
  }

  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, data, Algorithm::kBRS);
  NMRS_CHECK(prepared.ok()) << prepared.status();

  std::vector<std::vector<RowId>> want;
  for (int shards = 1; shards <= 4; ++shards) {
    ShardPlanOptions plan;
    plan.num_shards = shards;
    auto sharded = ShardedDataset::Partition(*prepared, plan);
    NMRS_CHECK(sharded.ok()) << sharded.status();

    BatchResult reference;
    bool have_reference = false;
    for (size_t workers : {1u, 8u, 8u}) {
      EngineOptions opts;
      opts.num_workers = workers;
      opts.cache_pages = 32;
      QueryEngine engine(*sharded, space, Algorithm::kBRS, opts);
      // The first batch builds every shard's verify index on the pool;
      // the second reads the built indexes from all workers at once.
      auto first = engine.RunBatch(queries);
      NMRS_CHECK(first.ok()) << first.status();
      NMRS_CHECK(first->ok()) << first->first_error();
      auto batch = engine.RunBatch(queries);
      NMRS_CHECK(batch.ok()) << batch.status();
      NMRS_CHECK(batch->ok()) << batch->first_error();
      for (size_t i = 0; i < queries.size(); ++i) {
        NMRS_CHECK(batch->results[i].rows == first->results[i].rows);
        NMRS_CHECK(batch->results[i].stats.checks ==
                   first->results[i].stats.checks);
      }
      if (!have_reference) {
        reference = std::move(*batch);
        have_reference = true;
        continue;
      }
      NMRS_CHECK(batch->total_messages == reference.total_messages);
      for (size_t i = 0; i < queries.size(); ++i) {
        NMRS_CHECK(batch->results[i].rows == reference.results[i].rows);
      }
    }

    if (shards == 1) {
      for (const auto& r : reference.results) want.push_back(r.rows);
    } else {
      for (size_t i = 0; i < queries.size(); ++i) {
        NMRS_CHECK(reference.results[i].rows == want[i])
            << "shards=" << shards << " query " << i;
      }
    }

    // A dead replica 0 on every shard: page-granular failover must still
    // produce the same rows with all workers fighting over the exchange.
    EngineOptions fopts;
    fopts.num_workers = 8;
    fopts.rs.resilience.replicas = 2;
    FaultConfig dead;
    dead.seed = 6;
    dead.data_loss_p = 1.0;
    fopts.replica_faults = {dead, FaultConfig{}};
    QueryEngine engine(*sharded, space, Algorithm::kBRS, fopts);
    auto batch = engine.RunBatch(queries);
    NMRS_CHECK(batch.ok()) << batch.status();
    NMRS_CHECK(batch->ok()) << batch->first_error();
    NMRS_CHECK(batch->total_io.failovers > 0);
    for (size_t i = 0; i < queries.size(); ++i) {
      NMRS_CHECK(batch->results[i].rows == want[i]);
    }
  }
  std::printf("sharded batch: %zu queries x shards 1..4, two batches per "
              "engine, cache + dead replica, rows identical throughout\n",
              queries.size());
}

// Mutable database under concurrent writers, compactions and readers: one
// writer thread streams inserts/deletes, a compactor thread compacts in a
// loop (so deletes of base rows land while a merge runs and are carried
// over into the fresh delta), and reader threads pin snapshots and run
// batches. Checks: every snapshot is internally consistent, queries on a
// pinned snapshot are repeatable while mutations continue, and the final
// snapshot's pages and keys equal a database opened over the writer's own
// mirror of the logical rows.
void StressMutableDatabase() {
  Rng rng(777);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  const std::vector<size_t> cards = {6, 5, 7};
  Dataset data = GenerateNormal(400, cards, data_rng);
  SimilaritySpace space;
  for (size_t card : cards) {
    space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }
  DatabaseOptions opts;
  opts.algo = Algorithm::kTRS;
  opts.engine.num_workers = 2;
  auto db = Database::Open(data, space, opts);
  NMRS_CHECK(db.ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> mutations{0};

  // The writer's mirror: (key, values) in the RowId order of a rebuild,
  // base rows first, then inserts in insert order, deletes removed.
  struct MirrorRow {
    uint64_t key;
    std::vector<ValueId> values;
  };
  std::vector<MirrorRow> mirror;
  for (RowId r = 0; r < data.num_rows(); ++r) {
    mirror.push_back(
        {r, std::vector<ValueId>(data.RowValues(r),
                                 data.RowValues(r) + cards.size())});
  }

  std::atomic<uint64_t> compactions{0};
  std::atomic<uint64_t> batches{0};
  std::thread writer([&] {
    Rng wrng(1234);
    // At least 600 mutations, and on until compactions and reader batches
    // have interleaved with them (bounded, should the threads starve).
    for (int i = 0; i < 600 || ((compactions.load() < 20 ||
                                 batches.load() < 8) && i < 20000);
         ++i) {
      if (!mirror.empty() && wrng.Uniform(3) == 0) {
        const size_t pick = wrng.Uniform(mirror.size());
        NMRS_CHECK((*db)->Delete(mirror[pick].key).ok());
        mirror.erase(mirror.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        std::vector<ValueId> values(cards.size());
        for (size_t a = 0; a < cards.size(); ++a) {
          values[a] = static_cast<ValueId>(wrng.Uniform(cards[a]));
        }
        auto key = (*db)->Insert(values);
        NMRS_CHECK(key.ok());
        mirror.push_back({*key, std::move(values)});
      }
      mutations.fetch_add(1);
      std::this_thread::yield();
    }
    stop.store(true);
  });

  std::thread compactor([&] {
    while (!stop.load()) {
      NMRS_CHECK((*db)->Compact().ok());
      compactions.fetch_add(1);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng qrng(9000 + t);
      while (!stop.load()) {
        auto snap = (*db)->Snapshot();
        NMRS_CHECK(snap.ok());
        std::vector<Object> queries;
        for (int q = 0; q < 3; ++q) {
          std::vector<ValueId> values(cards.size());
          for (size_t a = 0; a < cards.size(); ++a) {
            values[a] = static_cast<ValueId>(qrng.Uniform(cards[a]));
          }
          queries.push_back(data.MakeObject(values, {}));
        }
        auto first = snap->RunBatch(queries);
        NMRS_CHECK(first.ok());
        NMRS_CHECK(first->ok());
        // Repeatable read: the pinned snapshot answers identically even
        // though the writer keeps mutating underneath.
        auto second = snap->RunBatch(queries);
        NMRS_CHECK(second.ok());
        for (size_t q = 0; q < queries.size(); ++q) {
          NMRS_CHECK(first->results()[q].rows == second->results()[q].rows);
        }
        for (size_t q = 0; q < queries.size(); ++q) {
          for (RowId r : first->results()[q].rows) {
            NMRS_CHECK(r < snap->num_rows());
          }
        }
        batches.fetch_add(1);
      }
    });
  }
  writer.join();
  compactor.join();
  for (std::thread& t : readers) t.join();

  // The final state against a database opened over the writer's mirror:
  // same page bytes, and the same stable key behind every RowId.
  auto final_snap = (*db)->Snapshot();
  NMRS_CHECK(final_snap.ok());
  NMRS_CHECK_EQ(final_snap->num_rows(), (*db)->num_rows());
  NMRS_CHECK_EQ(final_snap->num_rows(), mirror.size());
  Dataset rebuilt(data.schema());
  for (const MirrorRow& row : mirror) rebuilt.AppendCategoricalRow(row.values);
  auto ref = Database::Open(rebuilt, space, (*db)->options());
  NMRS_CHECK(ref.ok());
  auto want = (*ref)->Snapshot();
  NMRS_CHECK(want.ok());
  const StoredDataset& got_file = final_snap->prepared().stored;
  const StoredDataset& want_file = want->prepared().stored;
  NMRS_CHECK_EQ(got_file.num_pages(), want_file.num_pages());
  for (PageId p = 0; p < want_file.num_pages(); ++p) {
    const Page* gp = got_file.disk()->PeekPage(got_file.file(), p);
    const Page* wp = want_file.disk()->PeekPage(want_file.file(), p);
    NMRS_CHECK(gp != nullptr && wp != nullptr);
    NMRS_CHECK(std::memcmp(gp->data(), wp->data(), gp->size()) == 0)
        << "final snapshot page " << p << " differs from the rebuild";
  }
  for (RowId r = 0; r < want->num_rows(); ++r) {
    NMRS_CHECK_EQ(final_snap->KeyOf(r), mirror[want->KeyOf(r)].key);
  }
  std::printf("mutable db stress: %llu mutations, %llu compactions, %llu "
              "reader batches ok, final snapshot equals the rebuild\n",
              static_cast<unsigned long long>(mutations.load()),
              static_cast<unsigned long long>(compactions.load()),
              static_cast<unsigned long long>(batches.load()));
}

}  // namespace
}  // namespace nmrs

int main() {
  nmrs::StressThreadPool();
  nmrs::StressSharedDiskReaders();
  nmrs::StressDiskViews();
  nmrs::StressSharedBufferPool();
  nmrs::StressEngineWithSharedCache();
  nmrs::StressSegmentStore();
  nmrs::StressQueryEngine();
  nmrs::StressResidentTrs();
  nmrs::StressFaultBatch();
  nmrs::StressConcurrentFailover();
  nmrs::StressReplicaBatch();
  nmrs::StressOverlayBatch();
  nmrs::StressShardedBatch();
  nmrs::StressMutableDatabase();
  std::printf("exec stress: all ok\n");
  return 0;
}
