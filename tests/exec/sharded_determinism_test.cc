#include <memory>
#include <string>
#include <vector>

#include "data/generators.h"
#include "exec/query_engine.h"
#include "gtest/gtest.h"
#include "sim/matrix_overlay.h"
#include "storage/disk_view.h"
#include "testing/test_util.h"

namespace nmrs {
namespace {

using testing::RandomInstance;

// The sharding determinism contract (docs/SHARDING.md): result rows and
// statuses are bit-identical to a sequential run of every query for every
// shard count, partitioner, worker count, cache setting and
// replica/failover configuration — and with one shard the engine
// reproduces the sequential run exactly, counters and IO included, except
// where TRS answers resident from the shard's AL-Tree (no IO, no phase 2;
// checks and pair tests equal one-batch TRS phase 1).

constexpr Algorithm kAllAlgorithms[] = {Algorithm::kNaive, Algorithm::kBRS,
                                        Algorithm::kSRS, Algorithm::kTRS};

struct Workload {
  Workload() : instance(97, 2500, {6, 7, 8}) {
    Rng rng(314159);
    for (int i = 0; i < 24; ++i) {
      queries.push_back(SampleUniformQuery(instance.data, rng));
    }
  }

  RandomInstance instance;
  std::vector<Object> queries;
};

const Workload& SharedWorkload() {
  static const Workload* wl = new Workload();
  return *wl;
}

struct Fixture {
  Fixture(Algorithm algo, int num_shards,
          ShardBy shard_by = ShardBy::kZOrderRange,
          size_t page_size = kDefaultPageSize)
      : algo(algo), disk(page_size) {
    const Workload& wl = SharedWorkload();
    auto prep = PrepareDataset(&disk, wl.instance.data, algo);
    NMRS_CHECK(prep.ok()) << prep.status();
    prepared = std::make_unique<PreparedDataset>(std::move(*prep));
    ShardPlanOptions plan;
    plan.num_shards = num_shards;
    plan.shard_by = shard_by;
    auto sh = ShardedDataset::Partition(*prepared, plan);
    NMRS_CHECK(sh.ok()) << sh.status();
    sharded = std::make_unique<ShardedDataset>(std::move(*sh));
  }

  BatchResult Run(EngineOptions opts = {}) {
    const Workload& wl = SharedWorkload();
    QueryEngine engine(*sharded, wl.instance.space, algo, opts);
    auto batch = engine.RunBatch(wl.queries);
    NMRS_CHECK(batch.ok()) << batch.status();
    return std::move(*batch);
  }

  Algorithm algo;
  SimulatedDisk disk;
  std::unique_ptr<PreparedDataset> prepared;
  std::unique_ptr<ShardedDataset> sharded;
};

// The engine-free reference: every query through RunReverseSkyline, one
// after another, over a DiskView re-wrapping of a fresh preparation (the
// sequential oracle of QueryEngineTest.WorkerCountDoesNotChangeResultsOrIo).
// Returned as a BatchResult carrying results, statuses and total_io.
BatchResult RunPlain(Algorithm algo, const RSOptions& rs = {},
                     size_t page_size = kDefaultPageSize) {
  const Workload& wl = SharedWorkload();
  SimulatedDisk disk(page_size);
  auto prep = PrepareDataset(&disk, wl.instance.data, algo);
  NMRS_CHECK(prep.ok()) << prep.status();
  DiskView view(&disk);
  const PreparedDataset local{
      StoredDataset(&view, prep->stored.file(), prep->stored.schema(),
                    prep->stored.num_rows()),
      prep->attr_order, 0};
  BatchResult out;
  for (const Object& q : wl.queries) {
    auto r = RunReverseSkyline(local, wl.instance.space, q, algo, rs);
    NMRS_CHECK(r.ok()) << r.status();
    out.total_io += r->stats.io;
    out.results.push_back(std::move(*r));
    out.statuses.push_back(Status::OK());
  }
  return out;
}

void ExpectSameRows(const BatchResult& a, const BatchResult& b,
                    const std::string& label) {
  ASSERT_EQ(a.results.size(), b.results.size()) << label;
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].rows, b.results[i].rows)
        << label << " query " << i;
    EXPECT_EQ(a.statuses[i].ToString(), b.statuses[i].ToString())
        << label << " query " << i;
  }
}

TEST(ShardedDeterminismTest, EveryShardCountMatchesPlainEngineAllAlgorithms) {
  for (Algorithm algo : kAllAlgorithms) {
    const BatchResult want = RunPlain(algo);
    for (int shards = 1; shards <= 4; ++shards) {
      for (ShardBy by : {ShardBy::kZOrderRange, ShardBy::kHash}) {
        Fixture fx(algo, shards, by);
        BatchResult got = fx.Run();
        ExpectSameRows(got, want,
                       std::string(AlgorithmName(algo)) + " shards=" +
                           std::to_string(shards) + " by=" +
                           std::string(ShardByName(by)));
      }
    }
  }
}

TEST(ShardedDeterminismTest, SingleShardReproducesQueryEngineBitForBit) {
  // Partition(1) aliases the base file and runs no exchange: counters,
  // per-query IO and total IO must equal the sequential run's, not just
  // rows. TRS runs on 1 KiB pages with a 2-page budget, which its AL-Tree
  // misses, so it takes the per-query path. The engine's one-time try of
  // the tree under the budget stops after one phase-1 batch of pages and is
  // in total_io alone.
  for (Algorithm algo : {Algorithm::kBRS, Algorithm::kTRS}) {
    const bool trs = algo == Algorithm::kTRS;
    RSOptions rs;
    if (trs) rs.memory = MemoryBudget{2};
    const size_t page_size = trs ? 1024 : kDefaultPageSize;
    const BatchResult want = RunPlain(algo, rs, page_size);
    Fixture fx(algo, 1, ShardBy::kZOrderRange, page_size);
    IoStats want_total = want.total_io;
    if (trs) {
      const testing::ShardIndexBuild index = testing::BuildShardIndexForTest(
          fx.prepared->stored, fx.prepared->attr_order,
          rs.memory.Bytes(page_size));
      ASSERT_FALSE(index.fits);
      EXPECT_LT(index.io.TotalReads(), fx.prepared->stored.num_pages());
      want_total += index.io;
    }
    EngineOptions opts;
    opts.rs = rs;
    BatchResult got = fx.Run(opts);
    ASSERT_EQ(got.results.size(), want.results.size());
    for (size_t i = 0; i < got.results.size(); ++i) {
      EXPECT_EQ(got.results[i].rows, want.results[i].rows) << "query " << i;
      EXPECT_EQ(got.results[i].stats.io, want.results[i].stats.io)
          << "query " << i;
      EXPECT_EQ(got.results[i].stats.checks, want.results[i].stats.checks)
          << "query " << i;
      EXPECT_EQ(got.results[i].stats.pair_tests,
                want.results[i].stats.pair_tests)
          << "query " << i;
      EXPECT_EQ(got.results[i].stats.result_size,
                want.results[i].stats.result_size)
          << "query " << i;
    }
    EXPECT_EQ(got.total_io, want_total);
    EXPECT_EQ(got.total_messages, MessageStats{});
    EXPECT_EQ(fx.sharded->partition_io().Total(), 0u);  // file aliased
  }

  // The resident leg: at the default budget one shard's TRS tree fits, and
  // every query is the one-batch TRS phase-1 answer with no page read.
  RSOptions scalar;
  scalar.use_kernels = false;
  const BatchResult trs = RunPlain(Algorithm::kTRS, scalar);
  Fixture fx(Algorithm::kTRS, 1);
  const BatchResult got = fx.Run();
  ASSERT_EQ(got.results.size(), trs.results.size());
  for (size_t i = 0; i < got.results.size(); ++i) {
    testing::ExpectResidentTrs(got.results[i], trs.results[i],
                               "resident query " + std::to_string(i));
  }
  EXPECT_EQ(got.total_io,
            testing::BuildShardIndexForTest(fx.prepared->stored,
                                            fx.prepared->attr_order)
                .io);
  EXPECT_EQ(got.total_messages, MessageStats{});
}

TEST(ShardedDeterminismTest, WorkerCountAndCacheDoNotChangeResults) {
  for (int shards : {2, 4}) {
    Fixture fx(Algorithm::kSRS, shards);
    EngineOptions base;
    base.num_workers = 1;
    const BatchResult want = fx.Run(base);
    for (size_t workers : {2u, 5u}) {
      for (uint64_t cache : {0u, 64u}) {
        EngineOptions opts;
        opts.num_workers = workers;
        opts.cache_pages = cache;
        BatchResult got = fx.Run(opts);
        ExpectSameRows(got, want,
                       "shards=" + std::to_string(shards) + " workers=" +
                           std::to_string(workers) + " cache=" +
                           std::to_string(cache));
        // Counters are worker-count independent for a fixed shard count.
        for (size_t i = 0; i < got.results.size(); ++i) {
          EXPECT_EQ(got.results[i].stats.checks, want.results[i].stats.checks)
              << "query " << i;
        }
        EXPECT_EQ(got.total_messages, want.total_messages);
      }
    }
  }
}

TEST(ShardedDeterminismTest, ReplicaFailoverKeepsResultsBitIdentical) {
  // One dead-ish replica among two: every query must still produce the
  // clean rows, with failovers actually exercised.
  for (int shards : {1, 3}) {
    Fixture fx(Algorithm::kSRS, shards);
    const BatchResult want = fx.Run();

    // Replica 0 has probabilistic bad sectors plus a guaranteed-dead page
    // in every shard file; replica 1 is healthy. Recovery must come from
    // page-granular failover alone (no clean-view re-runs).
    FaultConfig lossy;
    lossy.seed = 4242;
    lossy.data_loss_p = 1e-3;
    for (int s = 0; s < shards; ++s) {
      lossy.bad_pages.insert({fx.sharded->shard(s).file(), 0});
    }
    EngineOptions opts;
    opts.rs.resilience.replicas = 2;
    opts.replica_faults = {lossy, FaultConfig{}};
    BatchResult got = fx.Run(opts);
    EXPECT_EQ(got.num_failed(), 0u) << got.first_error();
    ExpectSameRows(got, want, "failover shards=" + std::to_string(shards));
    EXPECT_GT(got.total_io.failovers, 0u)
        << "fault config too weak to exercise resilience";
    EXPECT_GT(got.total_io.replica_reads[1], 0u);

    // And again: the faulty run itself is deterministic.
    BatchResult again = fx.Run(opts);
    ExpectSameRows(got, again, "failover-repeat");
    EXPECT_EQ(got.total_io, again.total_io);
    EXPECT_EQ(got.tasks_retried, again.tasks_retried);
  }
}

TEST(ShardedDeterminismTest, FaultedSingleReplicaFailsQueriesInIsolation) {
  // Unrecoverable data loss on the only replica: affected queries fail,
  // the rest still match the clean rows — per-query isolation — and the
  // outcome is identical across worker counts.
  Fixture fx(Algorithm::kBRS, 3);
  const BatchResult want = fx.Run();

  EngineOptions opts;
  opts.faults.seed = 1009;
  opts.faults.transient_read_p = 0.02;
  opts.rs.resilience.retry.max_attempts = 1;
  opts.num_workers = 3;
  BatchResult got = fx.Run(opts);
  size_t failed = 0;
  for (size_t i = 0; i < got.results.size(); ++i) {
    if (!got.statuses[i].ok()) {
      ++failed;
      EXPECT_TRUE(got.statuses[i].IsStorageFault()) << got.statuses[i];
    } else {
      EXPECT_EQ(got.results[i].rows, want.results[i].rows) << "query " << i;
    }
  }
  EXPECT_GT(failed, 0u) << "fault config too weak";
  EXPECT_LT(failed, got.results.size()) << "fault config too strong";

  opts.num_workers = 1;
  BatchResult serial = fx.Run(opts);
  ExpectSameRows(got, serial, "worker-invariance under faults");
}

TEST(ShardedDeterminismTest, MessageLedgerIsConsistent) {
  Fixture fx(Algorithm::kBRS, 4);
  BatchResult got = fx.Run();
  MessageStats sum;
  for (const ShardQueryBreakdown& b : got.breakdown) {
    // 3 rounds whenever the exchange ran for this query.
    if (b.messages.messages > 0) {
      EXPECT_EQ(b.messages.rounds, 3u);
    }
    sum += b.messages;
  }
  EXPECT_EQ(sum, got.total_messages);
  EXPECT_GT(got.total_messages.messages, 0u);
  EXPECT_GT(got.total_messages.bytes, 0u);
  EXPECT_GT(got.ExchangeModeledMillis(), 0.0);
  EXPECT_GT(got.ModeledMakespanMillis(), got.ExchangeModeledMillis());

  // Per-shard candidate counts cover every shard and sum to at least the
  // merged result size (local skylines over-approximate the global one).
  for (size_t q = 0; q < got.results.size(); ++q) {
    uint64_t cands = 0;
    for (uint64_t c : got.breakdown[q].shard_candidates) cands += c;
    EXPECT_GE(cands, got.results[q].rows.size()) << "query " << q;
  }
}

TEST(ShardedDeterminismTest, AttributeSubsetsMatchPlainEngine) {
  const std::vector<std::vector<AttrId>> subsets = {{0}, {1, 2}, {2, 0}};
  for (Algorithm algo : {Algorithm::kBRS, Algorithm::kTRS}) {
    for (const std::vector<AttrId>& subset : subsets) {
      RSOptions plain;
      plain.selected_attrs = subset;
      const BatchResult want = RunPlain(algo, plain);
      for (int shards = 2; shards <= 4; ++shards) {
        Fixture fx(algo, shards);
        EngineOptions opts;
        opts.rs.selected_attrs = subset;
        BatchResult got = fx.Run(opts);
        ExpectSameRows(got, want,
                       std::string(AlgorithmName(algo)) + " subset[0]=" +
                           std::to_string(subset[0]) + " size=" +
                           std::to_string(subset.size()) + " shards=" +
                           std::to_string(shards));
      }
    }
  }
}

TEST(ShardedDeterminismTest, OverlayMatchesPlainEngine) {
  const Workload& wl = SharedWorkload();
  Rng rng(2718);
  const MatrixOverlay overlay = MakeRandomOverlay(wl.instance.space, rng, 0.1);
  for (Algorithm algo : {Algorithm::kBRS, Algorithm::kTRS}) {
    RSOptions plain;
    plain.overlay = &overlay;
    const BatchResult want = RunPlain(algo, plain);
    const BatchResult base = RunPlain(algo);
    bool overlay_changes_rows = false;
    for (size_t i = 0; i < want.results.size(); ++i) {
      overlay_changes_rows |= want.results[i].rows != base.results[i].rows;
    }
    EXPECT_TRUE(overlay_changes_rows) << "overlay too weak";
    for (int shards = 2; shards <= 4; ++shards) {
      Fixture fx(algo, shards);
      EngineOptions opts;
      opts.rs.overlay = &overlay;
      BatchResult got = fx.Run(opts);
      ExpectSameRows(got, want,
                     std::string(AlgorithmName(algo)) + " overlay shards=" +
                         std::to_string(shards));
    }
  }
}

void ExpectSameCounters(const QueryStats& got, const QueryStats& want,
                        const std::string& label) {
  EXPECT_EQ(got.checks, want.checks) << label;
  EXPECT_EQ(got.phase1_checks, want.phase1_checks) << label;
  EXPECT_EQ(got.phase2_checks, want.phase2_checks) << label;
  EXPECT_EQ(got.pair_tests, want.pair_tests) << label;
  EXPECT_EQ(got.kernel_checks, want.kernel_checks) << label;
  EXPECT_EQ(got.phase1_batches, want.phase1_batches) << label;
  EXPECT_EQ(got.phase1_survivors, want.phase1_survivors) << label;
  EXPECT_EQ(got.phase2_batches, want.phase2_batches) << label;
  EXPECT_EQ(got.result_size, want.result_size) << label;
  EXPECT_EQ(got.io, want.io) << label;
}

TEST(ShardedDeterminismTest, CountersIndependentOfWorkersAndIndexBuild) {
  // Per-query counters and IO are a function of the shard count alone:
  // equal across worker counts, and equal between an engine's first batch
  // (which builds every shard's index) and its second (which only
  // reads them). The builds show up in total_io, never in a query's stats.
  const Workload& wl = SharedWorkload();
  for (Algorithm algo : {Algorithm::kBRS, Algorithm::kTRS}) {
    for (int shards : {2, 4}) {
      Fixture fx(algo, shards);
      std::vector<ReverseSkylineResult> want;
      for (size_t workers : {1u, 2u, 8u}) {
        const std::string label = std::string(AlgorithmName(algo)) +
                                  " shards=" + std::to_string(shards) +
                                  " workers=" + std::to_string(workers);
        EngineOptions opts;
        opts.num_workers = workers;
        QueryEngine engine(*fx.sharded, wl.instance.space, algo, opts);
        for (int s = 0; s < shards; ++s) {
          EXPECT_EQ(engine.shard_index_bytes(s), 0u) << label;
        }
        auto first = engine.RunBatch(wl.queries);
        ASSERT_TRUE(first.ok()) << first.status();
        ASSERT_TRUE(first->ok()) << first->first_error();
        for (int s = 0; s < shards; ++s) {
          EXPECT_GT(engine.shard_index_bytes(s), 0u) << label;
        }
        auto second = engine.RunBatch(wl.queries);
        ASSERT_TRUE(second.ok()) << second.status();
        ASSERT_TRUE(second->ok()) << second->first_error();
        EXPECT_GT(first->total_io.Total(), second->total_io.Total()) << label;
        EXPECT_EQ(first->total_messages, second->total_messages) << label;
        if (want.empty()) want = first->results;
        for (size_t i = 0; i < wl.queries.size(); ++i) {
          const std::string q = label + " query " + std::to_string(i);
          EXPECT_EQ(first->results[i].rows, want[i].rows) << q;
          EXPECT_EQ(second->results[i].rows, want[i].rows) << q;
          ExpectSameCounters(first->results[i].stats, want[i].stats,
                             q + " first batch");
          ExpectSameCounters(second->results[i].stats, want[i].stats,
                             q + " second batch");
        }
      }
    }
  }
}

}  // namespace
}  // namespace nmrs
