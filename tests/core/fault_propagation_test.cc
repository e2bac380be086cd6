#include <string>
#include <vector>

#include "core/bichromatic.h"
#include "core/pipeline.h"
#include "gtest/gtest.h"
#include "storage/disk_view.h"
#include "storage/fault_injection.h"
#include "testing/test_util.h"

namespace nmrs {
namespace {

using testing::RandomInstance;

// Every disk-reading algorithm must surface a storage fault on a dataset
// page as a storage-fault Status — no crash, no silently truncated result.
// Table-driven over the full Algorithm enum plus bichromatic RS, the one
// entry point that doesn't route through RunReverseSkyline.

class FaultPropagationTest : public ::testing::Test {
 protected:
  FaultPropagationTest() : instance_(17, 800, {5, 6, 7}) {
    Rng rng(91);
    query_ = SampleUniformQuery(instance_.data, rng);
  }

  // Prepares `algo`'s layout on a fresh base disk, then runs it through a
  // FaultyDisk configured with `cfg` over a DiskView — the engine's exact
  // wrapping order.
  Status RunWithFaults(Algorithm algo, const FaultConfig& cfg,
                       PageId* out_bad_page = nullptr) {
    SimulatedDisk base;
    auto prepared = PrepareDataset(&base, instance_.data, algo);
    if (!prepared.ok()) return prepared.status();

    FaultConfig local = cfg;
    if (local.bad_pages.empty() && local.transient_read_p == 0.0 &&
        local.corrupt_p == 0.0) {
      // Default shape: make the middle dataset page permanently bad.
      const PageId bad =
          static_cast<PageId>(base.NumPages(prepared->stored.file()) / 2);
      local.bad_pages.insert({prepared->stored.file(), bad});
      if (out_bad_page != nullptr) *out_bad_page = bad;
    }
    FaultInjector injector(local);
    DiskView view(&base);
    FaultyDisk faulty(&view, &injector, /*stream=*/0);
    PreparedDataset local_prep{
        StoredDataset(&faulty, prepared->stored.file(),
                      prepared->stored.schema(), prepared->stored.num_rows()),
        prepared->attr_order, 0};
    RSOptions rs;
    rs.memory = MemoryBudget{2};
    rs.resilience.retry.max_attempts = 2;
    auto result = RunReverseSkyline(local_prep, instance_.space, query_, algo,
                                    rs);
    return result.ok() ? Status::OK() : result.status();
  }

  RandomInstance instance_;
  Object query_;
};

TEST_F(FaultPropagationTest, BadPageSurfacesFromEveryAlgorithm) {
  for (Algorithm algo :
       {Algorithm::kNaive, Algorithm::kBRS, Algorithm::kSRS, Algorithm::kTRS,
        Algorithm::kTileSRS, Algorithm::kTileTRS}) {
    PageId bad = 0;
    Status s = RunWithFaults(algo, FaultConfig{}, &bad);
    EXPECT_FALSE(s.ok()) << AlgorithmName(algo)
                         << " masked a permanently bad page";
    EXPECT_TRUE(s.IsStorageFault())
        << AlgorithmName(algo) << " returned " << s;
    EXPECT_TRUE(s.IsDataLoss()) << AlgorithmName(algo) << " returned " << s;
    EXPECT_NE(s.message().find("page " + std::to_string(bad)),
              std::string::npos)
        << AlgorithmName(algo) << ": " << s;
  }
}

TEST_F(FaultPropagationTest, PermanentTransientsSurfaceAsDataLoss) {
  FaultConfig cfg;
  cfg.seed = 5;
  cfg.transient_read_p = 1.0;  // retries can never help
  for (Algorithm algo : {Algorithm::kNaive, Algorithm::kBRS, Algorithm::kSRS,
                         Algorithm::kTRS}) {
    Status s = RunWithFaults(algo, cfg);
    EXPECT_TRUE(s.IsDataLoss()) << AlgorithmName(algo) << " returned " << s;
    EXPECT_NE(s.message().find("attempts"), std::string::npos) << s;
  }
}

TEST_F(FaultPropagationTest, RareTransientsAreAbsorbedByRetries) {
  // With a generous retry budget and a low fault rate, every algorithm
  // completes and returns the fault-free answer.
  for (Algorithm algo : {Algorithm::kBRS, Algorithm::kSRS, Algorithm::kTRS}) {
    SimulatedDisk base;
    auto prepared = PrepareDataset(&base, instance_.data, algo);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    auto expected =
        RunReverseSkyline(*prepared, instance_.space, query_, algo);
    ASSERT_TRUE(expected.ok()) << expected.status();

    // The instance spans only a few pages, so the rate is high enough that
    // the (deterministic) fault stream hits at least one read; the 8-attempt
    // budget still absorbs a p=0.25 fault with overwhelming margin.
    FaultConfig cfg;
    cfg.seed = 23;
    cfg.transient_read_p = 0.25;
    FaultInjector injector(cfg);
    DiskView view(&base);
    FaultyDisk faulty(&view, &injector, 0);
    PreparedDataset local{
        StoredDataset(&faulty, prepared->stored.file(),
                      prepared->stored.schema(), prepared->stored.num_rows()),
        prepared->attr_order, 0};
    RSOptions rs;
    rs.resilience.retry.max_attempts = 8;
    auto result =
        RunReverseSkyline(local, instance_.space, query_, algo, rs);
    ASSERT_TRUE(result.ok()) << AlgorithmName(algo) << ": "
                             << result.status();
    EXPECT_EQ(result->rows, expected->rows) << AlgorithmName(algo);
    EXPECT_GT(result->stats.io.transient_retries, 0u) << AlgorithmName(algo);
    EXPECT_GT(result->stats.modeled_backoff_millis, 0.0);
    EXPECT_GT(result->stats.ResponseMillis(),
              result->stats.compute_millis +
                  IoCostModel{}.EstimateMillis(result->stats.io));
  }
}

TEST_F(FaultPropagationTest, BichromaticSurfacesFaultsFromEitherSet) {
  SimulatedDisk base;
  auto candidates =
      PrepareDataset(&base, instance_.data, Algorithm::kSRS, {}, "cands");
  ASSERT_TRUE(candidates.ok()) << candidates.status();
  RandomInstance other(18, 500, {5, 6, 7});
  auto competitors =
      PrepareDataset(&base, other.data, Algorithm::kSRS, {}, "comps");
  ASSERT_TRUE(competitors.ok()) << competitors.status();

  for (const FileId victim :
       {candidates->stored.file(), competitors->stored.file()}) {
    FaultConfig cfg;
    cfg.bad_pages.insert({victim, 0});
    FaultInjector injector(cfg);
    DiskView view(&base);
    FaultyDisk faulty(&view, &injector, 0);
    StoredDataset c(&faulty, candidates->stored.file(),
                    candidates->stored.schema(),
                    candidates->stored.num_rows());
    StoredDataset p(&faulty, competitors->stored.file(),
                    competitors->stored.schema(),
                    competitors->stored.num_rows());
    for (const bool tree : {false, true}) {
      auto result = tree ? BichromaticTreeRS(c, p, instance_.space, query_)
                         : BichromaticBlockRS(c, p, instance_.space, query_);
      ASSERT_FALSE(result.ok())
          << (tree ? "tree" : "block") << " masked bad file " << victim;
      EXPECT_TRUE(result.status().IsDataLoss()) << result.status();
    }
  }
}

TEST_F(FaultPropagationTest, StandaloneFailoverRecoversEveryAlgorithm) {
  // Without the QueryEngine: a bad middle page on the primary disk plus
  // one clean failover replica (ExecContext::failover_disks) lets every
  // algorithm return the fault-free rows, with the failover visible in its
  // IO accounting.
  for (Algorithm algo :
       {Algorithm::kNaive, Algorithm::kBRS, Algorithm::kSRS, Algorithm::kTRS,
        Algorithm::kTileSRS, Algorithm::kTileTRS}) {
    SimulatedDisk base;
    auto prepared = PrepareDataset(&base, instance_.data, algo);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    auto expected =
        RunReverseSkyline(*prepared, instance_.space, query_, algo);
    ASSERT_TRUE(expected.ok()) << expected.status();

    FaultConfig cfg;
    const PageId bad =
        static_cast<PageId>(base.NumPages(prepared->stored.file()) / 2);
    cfg.bad_pages.insert({prepared->stored.file(), bad});
    FaultInjector injector(cfg);
    DiskView primary(&base);
    DiskView replica(&base);
    FaultyDisk faulty(&primary, &injector, /*stream=*/0,
                      /*fault_ceiling=*/base.next_file_id());
    PreparedDataset local{
        StoredDataset(&faulty, prepared->stored.file(),
                      prepared->stored.schema(), prepared->stored.num_rows()),
        prepared->attr_order, 0};
    RSOptions rs;
    rs.memory = MemoryBudget{2};
    ExecContext exec;
    exec.failover_disks = {&replica};
    exec.failover_limit = base.next_file_id();
    auto result =
        RunReverseSkyline(local, instance_.space, query_, algo, rs, exec);
    ASSERT_TRUE(result.ok()) << AlgorithmName(algo) << ": "
                             << result.status();
    EXPECT_EQ(result->rows, expected->rows) << AlgorithmName(algo);
    EXPECT_GT(result->stats.io.failovers, 0u) << AlgorithmName(algo);
    EXPECT_GT(result->stats.io.replica_reads[1], 0u) << AlgorithmName(algo);
    EXPECT_EQ(result->stats.io.quarantined_pages, 0u) << AlgorithmName(algo);
  }
}

TEST_F(FaultPropagationTest, ChecksummedDatasetDetectsSilentCorruption) {
  // End-to-end: dataset sealed at prepare time, every read corrupted, the
  // query must fail with kCorruption instead of returning wrong rows.
  SimulatedDisk base;
  PrepareOptions popts;
  popts.checksum_pages = true;
  auto prepared =
      PrepareDataset(&base, instance_.data, Algorithm::kSRS, popts);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  ASSERT_TRUE(prepared->stored.checksum_pages());

  FaultConfig cfg;
  cfg.seed = 2;
  cfg.corrupt_p = 1.0;
  FaultInjector injector(cfg);
  DiskView view(&base);
  FaultyDisk faulty(&view, &injector, 0);
  PreparedDataset local{
      StoredDataset(&faulty, prepared->stored.file(),
                    prepared->stored.schema(), prepared->stored.num_rows(),
                    /*checksum_pages=*/true),
      prepared->attr_order, 0};
  RSOptions rs;
  rs.resilience.checksum_pages = true;
  auto result =
      RunReverseSkyline(local, instance_.space, query_, Algorithm::kSRS, rs);
  ASSERT_FALSE(result.ok()) << "corruption slipped past the checksums";
  EXPECT_TRUE(result.status().IsCorruption()) << result.status();
  // Verification fires before any row is decoded, so the corrupted bytes
  // never reach the dominance logic. (The PagedReader-level tests cover
  // the "no verification = silent corruption" half without decoding.)
}

}  // namespace
}  // namespace nmrs
