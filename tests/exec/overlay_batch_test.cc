#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/dominance.h"
#include "core/query_distance_table.h"
#include "data/generators.h"
#include "exec/overlay_exec.h"
#include "exec/query_engine.h"
#include "gtest/gtest.h"
#include "sim/dissimilarity_matrix.h"
#include "sim/matrix_overlay.h"
#include "testing/test_util.h"

namespace nmrs {
namespace {

using testing::RandomInstance;

// The overlay contract (docs/OVERLAYS.md): RunOverlayBatch's rows are
// bit-identical to rebuilding each user's patched SimilaritySpace and
// running the full batch per user — for every algorithm, composed with
// workers, caching, kernels, shared scans, sharding and replica faults.

constexpr Algorithm kAllAlgorithms[] = {Algorithm::kNaive, Algorithm::kBRS,
                                        Algorithm::kSRS, Algorithm::kTRS};

struct OverlayWorkload {
  OverlayWorkload() : instance(20260809, 1200, {5, 6, 7}) {
    Rng rng(271828);
    for (int i = 0; i < 8; ++i) {
      queries.push_back(SampleUniformQuery(instance.data, rng));
    }
    const double touch[] = {0.02, 0.10, 0.35};
    for (double t : touch) {
      Rng fork = rng.Fork();
      overlays.push_back(std::make_unique<MatrixOverlay>(
          MakeRandomOverlay(instance.space, fork, t)));
    }
  }

  std::vector<const MatrixOverlay*> OverlayPtrs() const {
    std::vector<const MatrixOverlay*> ptrs;
    for (const auto& o : overlays) ptrs.push_back(o.get());
    return ptrs;
  }

  RandomInstance instance;
  std::vector<Object> queries;
  std::vector<std::unique_ptr<MatrixOverlay>> overlays;
};

const OverlayWorkload& SharedWorkload() {
  static const OverlayWorkload* wl = new OverlayWorkload();
  return *wl;
}

// Reference: user u's rows computed the expensive way — patched space,
// full per-user batch through a fresh engine.
std::vector<std::vector<std::vector<RowId>>> RebuildReference(
    const PreparedDataset& prepared, Algorithm algo,
    const EngineOptions& opts) {
  const OverlayWorkload& wl = SharedWorkload();
  std::vector<std::vector<std::vector<RowId>>> rows(
      wl.queries.size(),
      std::vector<std::vector<RowId>>(wl.overlays.size()));
  for (size_t u = 0; u < wl.overlays.size(); ++u) {
    const SimilaritySpace patched = wl.overlays[u]->BuildPatchedSpace();
    QueryEngine engine(prepared, patched, algo, opts);
    auto batch = engine.RunBatch(wl.queries);
    NMRS_CHECK(batch.ok()) << batch.status();
    NMRS_CHECK(batch->ok()) << batch->first_error();
    for (size_t q = 0; q < wl.queries.size(); ++q) {
      rows[q][u] = batch->results[q].rows;
    }
  }
  return rows;
}

void ExpectMatchesRebuild(const PreparedDataset& prepared, Algorithm algo,
                          EngineOptions opts) {
  const OverlayWorkload& wl = SharedWorkload();
  QueryEngine engine(prepared, wl.instance.space, algo, opts);
  auto got = engine.RunOverlayBatch(wl.queries, wl.OverlayPtrs());
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(got->ok()) << got->first_error();
  const auto want = RebuildReference(prepared, algo, opts);
  for (size_t q = 0; q < wl.queries.size(); ++q) {
    for (size_t u = 0; u < wl.overlays.size(); ++u) {
      EXPECT_EQ(got->results[q][u].rows, want[q][u])
          << "algo=" << AlgorithmName(algo) << " q=" << q << " u=" << u;
    }
  }
}

TEST(OverlayBatchTest, MatchesPerUserRebuildAllAlgorithms) {
  const OverlayWorkload& wl = SharedWorkload();
  for (Algorithm algo : kAllAlgorithms) {
    SimulatedDisk disk;
    auto prep = PrepareDataset(&disk, wl.instance.data, algo);
    ASSERT_TRUE(prep.ok()) << prep.status();
    EngineOptions opts;
    opts.num_workers = 4;
    ExpectMatchesRebuild(*prep, algo, opts);
  }
}

TEST(OverlayBatchTest, MatchesRebuildWithKernelsCacheAndSharedScans) {
  const OverlayWorkload& wl = SharedWorkload();
  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, wl.instance.data, Algorithm::kSRS);
  ASSERT_TRUE(prep.ok()) << prep.status();
  EngineOptions opts;
  opts.num_workers = 3;
  opts.rs.use_kernels = true;
  opts.cache_pages = 32;
  opts.shared_scan = true;
  opts.shared_scan_group = 3;
  ExpectMatchesRebuild(*prep, Algorithm::kSRS, opts);
}

TEST(OverlayBatchTest, MatchesRebuildUnderReplicaFaults) {
  const OverlayWorkload& wl = SharedWorkload();
  SimulatedDisk disk;
  PrepareOptions po;
  po.checksum_pages = true;
  auto prep = PrepareDataset(&disk, wl.instance.data, Algorithm::kBRS, po);
  ASSERT_TRUE(prep.ok()) << prep.status();
  EngineOptions opts;
  opts.num_workers = 2;
  opts.rs.resilience.checksum_pages = true;
  opts.rs.resilience.replicas = 2;
  opts.faults.seed = 7;
  opts.faults.transient_read_p = 0.02;
  opts.faults.corrupt_p = 0.01;
  ExpectMatchesRebuild(*prep, Algorithm::kBRS, opts);
}

TEST(OverlayBatchTest, ResultsIndependentOfOverlayGroupAndWorkers) {
  const OverlayWorkload& wl = SharedWorkload();
  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, wl.instance.data, Algorithm::kBRS);
  ASSERT_TRUE(prep.ok()) << prep.status();

  std::vector<std::vector<std::vector<RowId>>> baseline;
  for (size_t workers : {1u, 4u}) {
    for (size_t group : {1u, 2u, 16u}) {
      EngineOptions opts;
      opts.num_workers = workers;
      opts.overlay_group = group;
      QueryEngine engine(*prep, wl.instance.space, Algorithm::kBRS, opts);
      auto got = engine.RunOverlayBatch(wl.queries, wl.OverlayPtrs());
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_TRUE(got->ok()) << got->first_error();
      std::vector<std::vector<std::vector<RowId>>> rows(wl.queries.size());
      for (size_t q = 0; q < wl.queries.size(); ++q) {
        for (size_t u = 0; u < wl.overlays.size(); ++u) {
          rows[q].push_back(got->results[q][u].rows);
        }
      }
      if (baseline.empty()) {
        baseline = rows;
      } else {
        EXPECT_EQ(rows, baseline)
            << "workers=" << workers << " group=" << group;
      }
    }
  }
}

TEST(OverlayBatchTest, TelemetryAccountsEveryRowAndScan) {
  const OverlayWorkload& wl = SharedWorkload();
  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, wl.instance.data, Algorithm::kBRS);
  ASSERT_TRUE(prep.ok()) << prep.status();
  EngineOptions opts;
  opts.num_workers = 2;
  opts.overlay_group = 2;
  QueryEngine engine(*prep, wl.instance.space, Algorithm::kBRS, opts);
  auto got = engine.RunOverlayBatch(wl.queries, wl.OverlayPtrs());
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(got->ok()) << got->first_error();

  const uint64_t rows = wl.instance.data.num_rows();
  const uint64_t users = wl.overlays.size();
  EXPECT_EQ(got->sensitive_rows + got->invariant_rows, rows * users);
  EXPECT_GT(got->sensitive_rows, 0u);
  // Grouped scans: at most ceil(users / group) passes per query.
  const uint64_t max_scans =
      wl.queries.size() * ((users + opts.overlay_group - 1) /
                           opts.overlay_group);
  EXPECT_LE(got->recheck_scans, max_scans);
  EXPECT_GT(got->recheck_scans, 0u);
  EXPECT_GT(got->recheck_checks, 0u);
  EXPECT_GT(got->overlay_io.Total(), 0u);
  EXPECT_GT(got->ModeledMakespanMillis(), 0.0);
  EXPECT_GT(got->ModeledQps(), 0.0);
  // The base batch is carried inside and already complete.
  EXPECT_EQ(got->base.results.size(), wl.queries.size());
}

TEST(OverlayBatchTest, ShardedMatchesPerUserRebuild) {
  const OverlayWorkload& wl = SharedWorkload();
  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, wl.instance.data, Algorithm::kBRS);
  ASSERT_TRUE(prep.ok()) << prep.status();
  ShardPlanOptions plan;
  plan.num_shards = 3;
  auto sharded = ShardedDataset::Partition(*prep, plan);
  ASSERT_TRUE(sharded.ok()) << sharded.status();

  EngineOptions opts;
  opts.num_workers = 3;
  QueryEngine engine(*sharded, wl.instance.space, Algorithm::kBRS, opts);
  auto got = engine.RunOverlayBatch(wl.queries, wl.OverlayPtrs());
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(got->ok()) << got->first_error();

  for (size_t u = 0; u < wl.overlays.size(); ++u) {
    const SimilaritySpace patched = wl.overlays[u]->BuildPatchedSpace();
    QueryEngine ref(*sharded, patched, Algorithm::kBRS, opts);
    auto want = ref.RunBatch(wl.queries);
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_TRUE(want->ok()) << want->first_error();
    for (size_t q = 0; q < wl.queries.size(); ++q) {
      EXPECT_EQ(got->results[q][u].rows, want->results[q].rows)
          << "q=" << q << " u=" << u;
    }
  }
  EXPECT_EQ(got->sensitive_rows + got->invariant_rows,
            wl.instance.data.num_rows() * wl.overlays.size());
}

TEST(OverlayBatchTest, InvariantOnlyUserAnswersFromBaseRun) {
  const OverlayWorkload& wl = SharedWorkload();
  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, wl.instance.data, Algorithm::kNaive);
  ASSERT_TRUE(prep.ok()) << prep.status();

  // A delta on value ids the dataset never stores as candidate values
  // would need out-of-domain ids; instead use an empty-delta user next to
  // a real one: the empty overlay is invalid input for RunOverlayBatch's
  // per-user list only if null — an empty (never-Set) overlay classifies
  // every row invariant and must answer exactly the base rows.
  MatrixOverlay transparent(wl.instance.space);
  std::vector<const MatrixOverlay*> overlays = {wl.overlays[0].get(),
                                                &transparent};
  QueryEngine engine(*prep, wl.instance.space, Algorithm::kNaive, {});
  auto got = engine.RunOverlayBatch(wl.queries, overlays);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(got->ok()) << got->first_error();
  for (size_t q = 0; q < wl.queries.size(); ++q) {
    EXPECT_EQ(got->results[q][1].rows, got->base.results[q].rows) << q;
  }
}

TEST(OverlayBatchTest, RejectsInvalidOverlayArguments) {
  const OverlayWorkload& wl = SharedWorkload();
  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, wl.instance.data, Algorithm::kNaive);
  ASSERT_TRUE(prep.ok()) << prep.status();
  QueryEngine engine(*prep, wl.instance.space, Algorithm::kNaive, {});

  EXPECT_TRUE(engine.RunOverlayBatch(wl.queries, {})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(engine.RunOverlayBatch(wl.queries, {nullptr})
                  .status()
                  .IsInvalidArgument());

  // Overlay over a different (if identical-looking) base space.
  RandomInstance other(20260809, 10, {5, 6, 7});
  Rng rng(1);
  MatrixOverlay foreign = MakeRandomOverlay(other.space, rng, 0.05);
  EXPECT_TRUE(engine.RunOverlayBatch(wl.queries, {&foreign})
                  .status()
                  .IsInvalidArgument());

  // Engine whose rs template already carries an overlay: ambiguous.
  EngineOptions opts;
  opts.rs.overlay = wl.overlays[0].get();
  QueryEngine tainted(*prep, wl.instance.space, Algorithm::kNaive, opts);
  EXPECT_TRUE(tainted.RunOverlayBatch(wl.queries, wl.OverlayPtrs())
                  .status()
                  .IsInvalidArgument());
}

TEST(OverlayBatchTest, SingleQueryOverlayOptionMatchesPatchedSpace) {
  // RSOptions::overlay on a plain RunReverseSkyline call — the native
  // delta path — against the materialized patched space, per algorithm.
  const OverlayWorkload& wl = SharedWorkload();
  for (Algorithm algo : kAllAlgorithms) {
    SimulatedDisk disk;
    auto prep = PrepareDataset(&disk, wl.instance.data, algo);
    ASSERT_TRUE(prep.ok()) << prep.status();
    for (const auto& overlay : wl.overlays) {
      const SimilaritySpace patched = overlay->BuildPatchedSpace();
      for (const Object& query : wl.queries) {
        RSOptions with_overlay;
        with_overlay.overlay = overlay.get();
        auto got = RunReverseSkyline(*prep, wl.instance.space, query, algo,
                                     with_overlay);
        ASSERT_TRUE(got.ok()) << got.status();
        auto want = RunReverseSkyline(*prep, patched, query, algo, {});
        ASSERT_TRUE(want.ok()) << want.status();
        EXPECT_EQ(got->rows, want->rows) << AlgorithmName(algo);
      }
    }
  }
}

// RunOverlayBatch through `Engine` (QueryEngine over a PreparedDataset or
// QueryEngine over a ShardedDataset) against rebuilding each user's
// patched space and running the same engine's plain batch over it.
template <typename Engine, typename Data, typename Options>
void ExpectEngineMatchesRebuild(const Data& data, const SimilaritySpace& space,
                                Algorithm algo, const Options& opts,
                                const std::vector<Object>& queries,
                                const std::vector<const MatrixOverlay*>& users,
                                const std::string& label) {
  Engine engine(data, space, algo, opts);
  auto got = engine.RunOverlayBatch(queries, users);
  ASSERT_TRUE(got.ok()) << label << ": " << got.status();
  ASSERT_TRUE(got->ok()) << label << ": " << got->first_error();
  EXPECT_GT(got->recheck_pair_tests, 0u) << label;
  for (size_t u = 0; u < users.size(); ++u) {
    const SimilaritySpace patched = users[u]->BuildPatchedSpace();
    Engine ref(data, patched, algo, opts);
    auto want = ref.RunBatch(queries);
    ASSERT_TRUE(want.ok()) << label << ": " << want.status();
    ASSERT_TRUE(want->ok()) << label << ": " << want->first_error();
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(got->results[q][u].rows, want->results[q].rows)
          << label << " q=" << q << " u=" << u;
    }
  }
}

TEST(OverlayBatchTest, MixedSchemaMatchesRebuild) {
  // Hints must carry the pruner's numerics: 3 categorical + 2 numeric
  // attributes, with overlays on the categorical matrices only.
  Rng rng(20261017);
  const Dataset data = GenerateMixed(900, {5, 6, 7}, 2, 8, rng);
  SimilaritySpace space;
  for (size_t card : {5, 6, 7}) {
    space.AddCategorical(MakeRandomMatrix(card, rng));
  }
  space.AddNumeric(NumericDissimilarity(0.01));
  space.AddNumeric(NumericDissimilarity(0.02));
  std::vector<Object> queries;
  for (int i = 0; i < 6; ++i) queries.push_back(SampleUniformQuery(data, rng));
  std::vector<std::unique_ptr<MatrixOverlay>> overlays;
  std::vector<const MatrixOverlay*> users;
  for (double touch : {0.05, 0.20}) {
    Rng fork = rng.Fork();
    overlays.push_back(std::make_unique<MatrixOverlay>(
        MakeRandomOverlay(space, fork, touch)));
    users.push_back(overlays.back().get());
  }

  for (Algorithm algo : {Algorithm::kBRS, Algorithm::kSRS}) {
    SimulatedDisk disk;
    auto prep = PrepareDataset(&disk, data, algo);
    ASSERT_TRUE(prep.ok()) << prep.status();
    const std::string name(AlgorithmName(algo));

    EngineOptions opts;
    opts.num_workers = 2;
    ExpectEngineMatchesRebuild<QueryEngine>(*prep, space, algo, opts,
                                            queries, users, name + " 1 shard");

    ShardPlanOptions plan;
    plan.num_shards = 2;
    auto sharded = ShardedDataset::Partition(*prep, plan);
    ASSERT_TRUE(sharded.ok()) << sharded.status();
    EngineOptions sopts;
    sopts.num_workers = 2;
    ExpectEngineMatchesRebuild<QueryEngine>(
        *sharded, space, algo, sopts, queries, users, name + " 2 shards");
  }
}

TEST(OverlayBatchTest, HintMissesAndUnhintedRowsFallBackDeterministically) {
  const OverlayWorkload& wl = SharedWorkload();
  const SimilaritySpace& space = wl.instance.space;
  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, wl.instance.data, Algorithm::kBRS);
  ASSERT_TRUE(prep.ok()) << prep.status();
  const Schema& schema = prep->stored.schema();
  const Object& query = wl.queries[0];
  auto base = RunReverseSkyline(*prep, space, query, Algorithm::kBRS, {});
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_FALSE(base->rows.empty());
  const auto in_base = [&](RowId id) {
    return std::binary_search(base->rows.begin(), base->rows.end(), id);
  };

  // Every row in dataset scan order — the order the hint pass searches.
  RowBatch all(schema.num_attributes(), false);
  ASSERT_TRUE(prep->stored.ReadAll(&all).ok());
  const std::vector<AttrId> selected = ResolveSelectedAttrs(schema, {});
  PruneContext ctx(space, schema, query, selected);

  // A row X outside the base answer, its first base pruner Y (X's hint),
  // and an attribute where Y differs from both X and the query.
  size_t x = all.size(), y = 0;
  AttrId attr = 0;
  for (size_t i = 0; i < all.size() && x == all.size(); ++i) {
    if (in_base(all.id(i))) continue;
    ctx.SetCandidate(all.row_values(i), nullptr);
    uint64_t checks = 0;
    size_t r = 0;
    while (r < all.size() &&
           (r == i || !ctx.Prunes(all.row_values(r), nullptr, &checks))) {
      ++r;
    }
    ASSERT_LT(r, all.size()) << "row outside the base answer has no pruner";
    for (AttrId a : selected) {
      if (all.value(r, a) != all.value(i, a) &&
          all.value(r, a) != query.values[a]) {
        x = i;
        y = r;
        attr = a;
        break;
      }
    }
  }
  ASSERT_LT(x, all.size()) << "no hint with a patchable attribute";

  // Users 0 and 1 push d(y_a, x_a) past d(q_a, x_a). Two users re-check
  // X, so it gets a hint, and the hint must miss.
  const ValueId xa = all.value(x, attr);
  const double far = space.CatDist(attr, query.values[attr], xa) + 1.0;
  MatrixOverlay miss(space);
  ASSERT_TRUE(miss.Set(attr, all.value(y, attr), xa, far).ok());
  {
    const QueryDistanceTable table(space, schema, query, selected, &miss);
    PruneContext overlaid(space, schema, query, selected, &table);
    overlaid.SetCandidate(all.row_values(x), nullptr);
    uint64_t checks = 0;
    ASSERT_FALSE(overlaid.Prunes(all.row_values(y), nullptr, &checks));
  }

  // User 1 also makes a base-answer row Z sensitive: Z has no hint at all.
  const RowId z_id = base->rows.front();
  size_t z = 0;
  while (all.id(z) != z_id) ++z;
  const AttrId za = selected.front();
  const ValueId zv = all.value(z, za);
  const ValueId from = zv == 0 ? 1 : 0;
  MatrixOverlay unhinted(space);
  ASSERT_TRUE(unhinted.Set(attr, all.value(y, attr), xa, far).ok());
  ASSERT_TRUE(
      unhinted.Set(za, from, zv, 0.5 * space.CatDist(za, from, zv)).ok());

  const std::vector<const MatrixOverlay*> users = {&miss, &unhinted,
                                                   wl.overlays[1].get()};
  std::vector<uint64_t> first;
  for (size_t workers : {1u, 2u, 8u}) {
    EngineOptions opts;
    opts.num_workers = workers;
    opts.overlay_group = 2;
    const std::string label = "workers=" + std::to_string(workers);
    ExpectEngineMatchesRebuild<QueryEngine>(*prep, space, Algorithm::kBRS,
                                            opts, wl.queries, users, label);
    QueryEngine engine(*prep, space, Algorithm::kBRS, opts);
    auto got = engine.RunOverlayBatch(wl.queries, users);
    ASSERT_TRUE(got.ok()) << got.status();
    const std::vector<uint64_t> counters = {
        got->recheck_checks, got->recheck_pair_tests, got->recheck_scans};
    if (first.empty()) {
      first = counters;
    } else {
      EXPECT_EQ(counters, first) << label;
    }
  }
}

}  // namespace
}  // namespace nmrs
