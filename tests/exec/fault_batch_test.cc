#include <string>
#include <vector>

#include "data/generators.h"
#include "exec/query_engine.h"
#include "gtest/gtest.h"
#include "sim/dissimilarity_matrix.h"
#include "sim/numeric_dissimilarity.h"
#include "storage/disk_view.h"
#include "testing/test_util.h"

namespace nmrs {
namespace {

using testing::RandomInstance;

// End-to-end fault behavior of QueryEngine::RunBatch: graceful per-query
// degradation, clean-view recovery, and the determinism guarantee — a fixed
// (seed, fault config, batch) produces byte-identical results, statuses and
// fault counters across runs and worker counts.

struct Workload {
  Workload() : instance(41, 8000, {6, 7, 8}) {
    Rng rng(271828);
    for (int i = 0; i < 64; ++i) {
      queries.push_back(SampleUniformQuery(instance.data, rng));
    }
  }

  RandomInstance instance;
  std::vector<Object> queries;
};

class FaultBatchTest : public ::testing::Test {
 protected:
  FaultBatchTest() {
    prepared_ = std::make_unique<StatusOr<PreparedDataset>>(
        PrepareDataset(&disk_, wl_.instance.data, Algorithm::kSRS));
    EXPECT_TRUE(prepared_->ok()) << prepared_->status();
  }

  const PreparedDataset& prepared() const { return **prepared_; }

  BatchResult RunWith(EngineOptions opts) {
    QueryEngine engine(prepared(), wl_.instance.space, Algorithm::kSRS,
                       opts);
    auto batch = engine.RunBatch(wl_.queries);
    EXPECT_TRUE(batch.ok()) << batch.status();
    return std::move(*batch);
  }

  // The fault-free ground truth every comparison keys off.
  BatchResult CleanBaseline() { return RunWith(EngineOptions{}); }

  Workload wl_;
  SimulatedDisk disk_;
  std::unique_ptr<StatusOr<PreparedDataset>> prepared_;
};

void ExpectIdentical(const BatchResult& a, const BatchResult& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].rows, b.results[i].rows) << "query " << i;
    EXPECT_EQ(a.results[i].stats.io, b.results[i].stats.io) << "query " << i;
    EXPECT_EQ(a.statuses[i].ToString(), b.statuses[i].ToString())
        << "query " << i;
  }
  EXPECT_EQ(a.total_io, b.total_io);
  EXPECT_EQ(a.queries_retried, b.queries_retried);
  EXPECT_EQ(a.quarantined, b.quarantined);
}

TEST_F(FaultBatchTest, FaultsOffIsBitIdenticalToDefaultEngine) {
  // Guard for the seed path: an engine with every fault option explicitly
  // at its default produces byte-identical output to the default engine,
  // with all fault counters zero and no checksum footer in play.
  BatchResult plain = CleanBaseline();
  EngineOptions off;
  off.faults = FaultConfig{};  // disabled
  off.rs.resilience.checksum_pages = false;
  off.max_query_retries = 0;
  BatchResult explicit_off = RunWith(off);
  ExpectIdentical(plain, explicit_off);
  EXPECT_TRUE(plain.ok());
  EXPECT_EQ(plain.num_failed(), 0u);
  EXPECT_TRUE(plain.quarantined.empty());
  EXPECT_EQ(plain.queries_retried, 0u);
  EXPECT_EQ(plain.total_io.transient_retries, 0u);
  EXPECT_EQ(plain.total_io.checksum_failures, 0u);
  EXPECT_EQ(plain.total_io.quarantined_pages, 0u);
}

TEST_F(FaultBatchTest, BadPagesFailEveryScanningQueryGracefully) {
  // A permanently bad page in the dataset is hit by every full-scan query:
  // the batch must complete with 64 individual kDataLoss statuses and
  // partial stats — not die on the first error.
  const PageId mid =
      static_cast<PageId>(disk_.NumPages(prepared().stored.file()) / 2);
  EngineOptions opts;
  opts.faults.seed = 1;
  opts.faults.bad_pages.insert({prepared().stored.file(), 0});
  opts.faults.bad_pages.insert({prepared().stored.file(), mid});
  BatchResult batch = RunWith(opts);

  EXPECT_FALSE(batch.ok());
  EXPECT_EQ(batch.num_failed(), wl_.queries.size());
  EXPECT_TRUE(batch.first_error().IsDataLoss()) << batch.first_error();
  for (size_t i = 0; i < batch.statuses.size(); ++i) {
    EXPECT_TRUE(batch.statuses[i].IsDataLoss()) << batch.statuses[i];
    EXPECT_TRUE(batch.statuses[i].IsStorageFault());
    EXPECT_TRUE(batch.results[i].rows.empty());
    // The dead scan still charged the pages it touched before dying.
    EXPECT_GT(batch.results[i].stats.io.Total(), 0u) << "query " << i;
  }
  // The sequential phase-1 scan dies on page 0, so only the first bad page
  // is ever reached (and therefore quarantined).
  ASSERT_EQ(batch.quarantined.size(), 1u);
  EXPECT_EQ(batch.quarantined[0],
            (std::pair<FileId, PageId>{prepared().stored.file(), 0}));
}

TEST_F(FaultBatchTest, CleanViewRetryRecoversEveryQuery) {
  // Same bad page, but max_query_retries models a replica read: every
  // query fails its faulty attempt and succeeds on the clean view, so the
  // batch ends fully correct while still reporting what went wrong.
  BatchResult clean = CleanBaseline();
  EngineOptions opts;
  opts.faults.seed = 1;
  opts.faults.bad_pages.insert({prepared().stored.file(), 0});
  opts.max_query_retries = 1;
  BatchResult batch = RunWith(opts);

  EXPECT_TRUE(batch.ok());
  EXPECT_EQ(batch.queries_retried, wl_.queries.size());
  ASSERT_EQ(batch.quarantined.size(), 1u);
  for (size_t i = 0; i < batch.results.size(); ++i) {
    EXPECT_EQ(batch.results[i].rows, clean.results[i].rows) << "query " << i;
    // Replica-read accounting: the reported stats are the successful
    // attempt's, identical to a clean run.
    EXPECT_EQ(batch.results[i].stats.io, clean.results[i].stats.io);
  }
}

TEST_F(FaultBatchTest, TransientStormIsolatesAffectedQueries) {
  // No page-level retries: every transient kills its query, so a
  // deterministic subset of the batch fails while the rest must stay
  // bit-identical to the clean baseline.
  BatchResult clean = CleanBaseline();
  EngineOptions opts;
  opts.faults.seed = 1009;
  opts.faults.transient_read_p = 0.05;
  opts.rs.resilience.retry.max_attempts = 1;
  BatchResult batch = RunWith(opts);

  EXPECT_GT(batch.num_failed(), 0u) << "seed produced no affected query";
  EXPECT_LT(batch.num_failed(), wl_.queries.size())
      << "seed affected every query";
  for (size_t i = 0; i < batch.results.size(); ++i) {
    if (batch.statuses[i].ok()) {
      EXPECT_EQ(batch.results[i].rows, clean.results[i].rows)
          << "unaffected query " << i << " diverged";
      EXPECT_EQ(batch.results[i].stats.io, clean.results[i].stats.io);
    } else {
      EXPECT_TRUE(batch.statuses[i].IsDataLoss()) << batch.statuses[i];
      EXPECT_TRUE(batch.results[i].rows.empty());
    }
  }
  EXPECT_FALSE(batch.quarantined.empty());
}

TEST_F(FaultBatchTest, AcceptanceScenarioTransientsPlusBadPages) {
  // The headline scenario: 64 queries, p = 1e-3 transients with the
  // default retry budget (which absorbs them), 2 permanently bad pages,
  // and one clean-view query retry. Affected queries report storage-fault
  // statuses on their faulty attempt and recover on the replica; the whole
  // batch returns correct rows.
  BatchResult clean = CleanBaseline();
  const PageId mid =
      static_cast<PageId>(disk_.NumPages(prepared().stored.file()) / 2);

  EngineOptions opts;
  opts.faults.seed = 7;
  opts.faults.transient_read_p = 1e-3;
  opts.faults.bad_pages.insert({prepared().stored.file(), mid});
  opts.faults.bad_pages.insert({prepared().stored.file(), mid + 1});

  // Without recovery: the batch completes, unaffected-by-definition there
  // are none (every scan crosses the bad page), every status is in the
  // kDataLoss/kCorruption family, partial stats flow.
  BatchResult no_retry = RunWith(opts);
  EXPECT_EQ(no_retry.num_failed(), wl_.queries.size());
  for (const Status& s : no_retry.statuses) {
    EXPECT_TRUE(s.IsStorageFault()) << s;
  }

  // With recovery: every query returns the correct rows.
  opts.max_query_retries = 1;
  BatchResult recovered = RunWith(opts);
  EXPECT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.queries_retried, wl_.queries.size());
  for (size_t i = 0; i < recovered.results.size(); ++i) {
    EXPECT_EQ(recovered.results[i].rows, clean.results[i].rows)
        << "query " << i;
  }
  // The first bad page the scans reach is quarantined and reported.
  ASSERT_FALSE(recovered.quarantined.empty());
  EXPECT_EQ(recovered.quarantined[0],
            (std::pair<FileId, PageId>{prepared().stored.file(), mid}));
}

TEST_F(FaultBatchTest, FaultPatternIsIndependentOfWorkerCountAndRuns) {
  EngineOptions opts;
  opts.faults.seed = 99;
  opts.faults.transient_read_p = 0.05;
  // Some retries fire and are absorbed.
  opts.rs.resilience.retry.max_attempts = 2;

  BatchResult reference = RunWith(opts);  // default workers
  EXPECT_GT(reference.total_io.transient_retries, 0u);
  for (size_t workers : {1u, 8u}) {
    for (int run = 0; run < 2; ++run) {
      EngineOptions o = opts;
      o.num_workers = workers;
      BatchResult batch = RunWith(o);
      ExpectIdentical(reference, batch);
    }
  }
}

TEST_F(FaultBatchTest, FailFastRestoresLegacySemantics) {
  EngineOptions opts;
  opts.faults.seed = 1;
  opts.faults.bad_pages.insert({prepared().stored.file(), 0});
  opts.fail_fast = true;
  QueryEngine engine(prepared(), wl_.instance.space, Algorithm::kSRS, opts);
  auto batch = engine.RunBatch(wl_.queries);
  ASSERT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsDataLoss()) << batch.status();
}

TEST_F(FaultBatchTest, ChecksummedBatchSurvivesCorruptionViaRetry) {
  // Silent corruption + checksummed dataset: queries see kCorruption on
  // the faulty attempt and recover on the clean view. (Corruption with
  // checksums *off* is undetectable by design — covered in the reader
  // tests — so a corrupting batch config only makes sense sealed.)
  SimulatedDisk disk;
  PrepareOptions popts;
  popts.checksum_pages = true;
  auto prepared =
      PrepareDataset(&disk, wl_.instance.data, Algorithm::kSRS, popts);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  EngineOptions clean_opts;  // engine auto-enables verification
  QueryEngine clean_engine(*prepared, wl_.instance.space, Algorithm::kSRS,
                           clean_opts);
  auto clean = clean_engine.RunBatch(wl_.queries);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_TRUE(clean->ok()) << clean->first_error();

  EngineOptions opts;
  opts.faults.seed = 3;
  opts.faults.corrupt_p = 0.02;
  opts.max_query_retries = 1;
  QueryEngine engine(*prepared, wl_.instance.space, Algorithm::kSRS, opts);
  auto batch = engine.RunBatch(wl_.queries);
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_TRUE(batch->ok()) << batch->first_error();
  EXPECT_GT(batch->total_io.checksum_failures +
                static_cast<uint64_t>(batch->queries_retried),
            0u)
      << "corruption config fired nothing; raise corrupt_p";
  for (size_t i = 0; i < batch->results.size(); ++i) {
    EXPECT_EQ(batch->results[i].rows, clean->results[i].rows)
        << "query " << i;
  }
}

TEST_F(FaultBatchTest, ReplicaFailoverCompletesBatchWithZeroFailures) {
  // The PR 5 acceptance scenario: one replica suffers persistent data loss
  // (p = 1e-3 probabilistic bad sectors plus a guaranteed bad page 0 every
  // scan crosses), the other replica(s) are healthy, and there are NO
  // query-level retries — recovery must come entirely from page-granular
  // failover. The batch completes with zero failed queries and rows
  // bit-identical to the fault-free run.
  BatchResult clean = CleanBaseline();
  for (int replicas : {2, 3}) {
    FaultConfig lossy;
    lossy.seed = 4242;
    lossy.data_loss_p = 1e-3;
    lossy.bad_pages.insert({prepared().stored.file(), 0});

    EngineOptions opts;
    opts.rs.resilience.replicas = replicas;
    opts.replica_faults.assign(static_cast<size_t>(replicas), FaultConfig{});
    opts.replica_faults[0] = lossy;
    opts.max_query_retries = 0;
    BatchResult batch = RunWith(opts);

    EXPECT_TRUE(batch.ok()) << "replicas=" << replicas << ": "
                            << batch.first_error();
    EXPECT_EQ(batch.num_failed(), 0u);
    EXPECT_EQ(batch.queries_retried, 0u);  // no clean-view re-runs happened
    EXPECT_TRUE(batch.quarantined.empty());  // no page failed EVERY replica
    EXPECT_GT(batch.total_io.failovers, 0u);
    EXPECT_GT(batch.total_io.replica_reads[1], 0u);
    for (size_t i = 0; i < batch.results.size(); ++i) {
      EXPECT_EQ(batch.results[i].rows, clean.results[i].rows)
          << "replicas=" << replicas << " query " << i;
    }
  }
}

TEST_F(FaultBatchTest, TotallyDeadReplicaIsDeterministicAcrossWorkerCounts) {
  // Replica 0 loses every page (p = 1.0): each reader pays one failover,
  // then sticks to the surviving replica. Results, statuses, and the full
  // per-query IO accounting (failovers and replica_reads included) must be
  // independent of worker count and repeatable.
  BatchResult clean = CleanBaseline();
  FaultConfig dead;
  dead.seed = 5;
  dead.data_loss_p = 1.0;

  EngineOptions opts;
  opts.rs.resilience.replicas = 2;
  opts.replica_faults = {dead, FaultConfig{}};
  BatchResult reference = RunWith(opts);

  EXPECT_TRUE(reference.ok()) << reference.first_error();
  EXPECT_GT(reference.total_io.failovers, 0u);
  EXPECT_GT(reference.total_io.replica_reads[1], 0u);
  for (size_t i = 0; i < reference.results.size(); ++i) {
    EXPECT_EQ(reference.results[i].rows, clean.results[i].rows)
        << "query " << i;
  }
  for (size_t workers : {1u, 8u}) {
    EngineOptions o = opts;
    o.num_workers = workers;
    BatchResult batch = RunWith(o);
    ExpectIdentical(reference, batch);
  }
}

TEST_F(FaultBatchTest, SingleReplicaIsBitIdenticalToTheUnreplicatedEngine) {
  // replicas = 1 must be a pure no-op: same fault pattern (replica 0 keeps
  // the seed verbatim), same results, same accounting as an engine that
  // never heard of replicas — and the failover counters stay zero.
  EngineOptions opts;
  opts.faults.seed = 99;
  opts.faults.transient_read_p = 0.05;
  opts.rs.resilience.retry.max_attempts = 2;
  BatchResult unreplicated = RunWith(opts);

  EngineOptions one = opts;
  one.rs.resilience.replicas = 1;
  BatchResult single = RunWith(one);
  ExpectIdentical(unreplicated, single);
  EXPECT_EQ(single.total_io.failovers, 0u);
  EXPECT_EQ(single.total_io.ReplicaReadsTotal(), 0u);
}

TEST_F(FaultBatchTest, AllReplicasLosingAPageStillFailsTheQuery) {
  // Failover is not magic: when every replica lost the same page (same
  // explicit bad_pages on both), the queries that need it must still fail
  // and the page must be quarantined.
  FaultConfig lossy;
  lossy.seed = 1;
  lossy.bad_pages.insert({prepared().stored.file(), 0});

  EngineOptions opts;
  opts.rs.resilience.replicas = 2;
  opts.replica_faults = {lossy, lossy};
  BatchResult batch = RunWith(opts);

  EXPECT_FALSE(batch.ok());
  EXPECT_EQ(batch.num_failed(), wl_.queries.size());
  EXPECT_TRUE(batch.first_error().IsDataLoss()) << batch.first_error();
  ASSERT_EQ(batch.quarantined.size(), 1u);
  EXPECT_EQ(batch.quarantined[0],
            (std::pair<FileId, PageId>{prepared().stored.file(), 0}));
}

TEST_F(FaultBatchTest, FailoverComposesWithChecksumsAndCorruption) {
  // Replica 0 silently corrupts aggressively; the dataset is checksummed,
  // so verification catches it and page reads fail over to the clean
  // replica instead of surfacing kCorruption.
  SimulatedDisk disk;
  PrepareOptions popts;
  popts.checksum_pages = true;
  auto prepared =
      PrepareDataset(&disk, wl_.instance.data, Algorithm::kSRS, popts);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  QueryEngine clean_engine(*prepared, wl_.instance.space, Algorithm::kSRS,
                           EngineOptions{});
  auto clean = clean_engine.RunBatch(wl_.queries);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_TRUE(clean->ok()) << clean->first_error();

  FaultConfig corrupting;
  corrupting.seed = 3;
  corrupting.corrupt_p = 0.05;

  EngineOptions opts;
  opts.rs.resilience.replicas = 2;
  opts.replica_faults = {corrupting, FaultConfig{}};
  QueryEngine engine(*prepared, wl_.instance.space, Algorithm::kSRS, opts);
  auto batch = engine.RunBatch(wl_.queries);
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_TRUE(batch->ok()) << batch->first_error();
  EXPECT_GT(batch->total_io.checksum_failures, 0u)
      << "corruption config fired nothing; raise corrupt_p";
  EXPECT_GT(batch->total_io.failovers, 0u);
  for (size_t i = 0; i < batch->results.size(); ++i) {
    EXPECT_EQ(batch->results[i].rows, clean->results[i].rows)
        << "query " << i;
  }
}

TEST(FaultBatchShardedTest, NumericVerifyFromIndexRetriesOnlyScatter) {
  // Two shards over a schema with a numeric attribute. Page 0 of shard 0
  // is gone on the faulty attempt: every query's shard-0 scatter task hits
  // it, fails, and recovers on the clean view. The verify round searches
  // each shard's index, which its build read through a clean view, so it
  // reads no page and retries nothing.
  Rng data_rng(4242);
  Rng space_rng(4243);
  const std::vector<size_t> cards = {5, 6, 7};
  const Dataset data = GenerateMixed(3000, cards, 1, 8, data_rng);
  SimilaritySpace space;
  for (size_t card : cards) {
    space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }
  space.AddNumeric(NumericDissimilarity(0.01));
  Rng query_rng(4244);
  std::vector<Object> queries;
  for (int i = 0; i < 16; ++i) {
    queries.push_back(SampleUniformQuery(data, query_rng));
  }

  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, data, Algorithm::kSRS);
  ASSERT_TRUE(prep.ok()) << prep.status();
  ShardPlanOptions plan;
  plan.num_shards = 2;
  auto sharded = ShardedDataset::Partition(*prep, plan);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  ASSERT_GT(sharded->shard_rows(0), 0u);
  ASSERT_GT(sharded->shard_rows(1), 0u);

  auto run = [&](const EngineOptions& opts) {
    QueryEngine engine(*sharded, space, Algorithm::kSRS, opts);
    auto batch = engine.RunBatch(queries);
    EXPECT_TRUE(batch.ok()) << batch.status();
    return std::move(*batch);
  };
  EngineOptions clean_opts;
  clean_opts.num_workers = 2;
  const BatchResult clean = run(clean_opts);
  ASSERT_TRUE(clean.ok()) << clean.first_error();

  EngineOptions opts = clean_opts;
  opts.faults.seed = 1;
  opts.faults.bad_pages.insert({sharded->shard(0).file(), 0});
  opts.max_query_retries = 1;
  const BatchResult batch = run(opts);

  ASSERT_TRUE(batch.ok()) << batch.first_error();
  // Shard 0 verifies the foreign candidates of every query whose shard 1
  // offered some.
  uint64_t verifies = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(batch.results[q].rows, clean.results[q].rows) << "query " << q;
    EXPECT_EQ(batch.results[q].stats.io, clean.results[q].stats.io)
        << "query " << q;
    if (clean.breakdown[q].shard_candidates[1] > 0) ++verifies;
  }
  EXPECT_EQ(verifies, 8u);
  // 16 scatter recoveries (shard 0 of every query) and none in the verify.
  EXPECT_EQ(batch.tasks_retried, queries.size());
  EXPECT_EQ(batch.queries_retried, queries.size());
  ASSERT_EQ(batch.quarantined.size(), 1u);
  EXPECT_EQ(batch.quarantined[0],
            (std::pair<FileId, PageId>{sharded->shard(0).file(), 0}));
}

// Fault-stream oracle: with one shard, query q of an engine batch reads
// under fault stream q, so its fault outcome must be what a sequential
// RunReverseSkyline of q sees over a FaultyDisk with that stream — the
// same status (which names the page that failed), the same rows, and the
// same transient retries, checksum failures, quarantined pages and IO.
// Checksums are on, and transient faults and corruption both fire. The
// shard's replicas inject faults, so the batch keeps no page segments: a
// segment built by one query would otherwise serve pages whose reads
// fault differently for another.
TEST(FaultStreamOracleTest, EveryQueryMatchesItsSequentialFaultStream) {
  RandomInstance instance(67, 3000, {6, 7, 8});
  Rng rng(6700);
  std::vector<Object> queries;
  for (int i = 0; i < 24; ++i) {
    queries.push_back(SampleUniformQuery(instance.data, rng));
  }
  FaultConfig faults;
  faults.seed = 17;
  faults.transient_read_p = 0.05;
  faults.corrupt_p = 0.03;

  for (Algorithm algo : {Algorithm::kSRS, Algorithm::kBRS}) {
    const std::string name(AlgorithmName(algo));
    SimulatedDisk disk(1024);
    PrepareOptions popts;
    popts.checksum_pages = true;
    auto prepared = PrepareDataset(&disk, instance.data, algo, popts);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    const FileId fault_ceiling = disk.next_file_id();

    EngineOptions opts;
    opts.num_workers = 4;
    opts.rs.memory = MemoryBudget{8};
    opts.faults = faults;
    QueryEngine engine(*prepared, instance.space, algo, opts);
    auto batch = engine.RunBatch(queries);
    ASSERT_TRUE(batch.ok()) << batch.status();
    EXPECT_EQ(batch->shard_segments_built, std::vector<uint64_t>{0})
        << name << ": a faulted shard kept page segments";

    RSOptions rs = opts.rs;
    rs.resilience.checksum_pages = true;  // as the engine turns it on
    const FaultInjector injector(faults);
    QuarantineLog quarantine;
    size_t failed = 0, corrupted = 0, retried = 0;
    for (size_t q = 0; q < queries.size(); ++q) {
      DiskView view(&disk);
      FaultyDisk faulty(&view, &injector, /*stream=*/q, fault_ceiling);
      PreparedDataset local{
          StoredDataset(&faulty, prepared->stored.file(),
                        prepared->stored.schema(),
                        prepared->stored.num_rows(), true),
          prepared->attr_order, 0};
      ExecContext exec;
      exec.quarantine = &quarantine;
      auto want = RunReverseSkyline(local, instance.space, queries[q], algo,
                                    rs, exec);
      const Status& got_status = batch->statuses[q];
      ASSERT_EQ(got_status.ToString(),
                want.ok() ? Status::OK().ToString()
                          : want.status().ToString())
          << name << " query " << q;
      if (!want.ok()) {
        ++failed;
        continue;
      }
      const ReverseSkylineResult& got = batch->results[q];
      const IoStats& gio = got.stats.io;
      const IoStats& wio = want->stats.io;
      EXPECT_EQ(got.rows, want->rows) << name << " query " << q;
      EXPECT_EQ(gio.transient_retries, wio.transient_retries)
          << name << " query " << q;
      EXPECT_EQ(gio.checksum_failures, wio.checksum_failures)
          << name << " query " << q;
      EXPECT_EQ(gio.quarantined_pages, wio.quarantined_pages)
          << name << " query " << q;
      EXPECT_EQ(gio, wio) << name << " query " << q;
      EXPECT_EQ(got.stats.checks, want->stats.checks)
          << name << " query " << q;
      EXPECT_EQ(got.stats.modeled_backoff_millis,
                want->stats.modeled_backoff_millis)
          << name << " query " << q;
      corrupted += wio.checksum_failures > 0;
      retried += wio.transient_retries > 0;
    }
    // The pages every failed query gave up on, across the batch.
    EXPECT_EQ(batch->quarantined, quarantine.Pages()) << name;
    EXPECT_GT(failed, 0u) << name << ": no query failed; raise the rates";
    EXPECT_LT(failed, queries.size()) << name << ": every query failed";
    EXPECT_GT(corrupted, 0u) << name << ": no surviving query saw corruption";
    EXPECT_GT(retried, 0u) << name << ": no surviving query retried";
  }
}

}  // namespace
}  // namespace nmrs
