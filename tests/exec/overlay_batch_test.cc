#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "altree/al_tree.h"
#include "core/dominance.h"
#include "core/query_distance_table.h"
#include "core/shard_exchange.h"
#include "core/tree_traversal.h"
#include "data/generators.h"
#include "exec/overlay_exec.h"
#include "exec/query_engine.h"
#include "gtest/gtest.h"
#include "sim/dissimilarity_matrix.h"
#include "sim/matrix_overlay.h"
#include "storage/replica_set.h"
#include "testing/test_util.h"

namespace nmrs {
namespace {

using testing::RandomInstance;

// The overlay contract (docs/OVERLAYS.md): RunOverlayBatch's rows are
// bit-identical to rebuilding each user's patched SimilaritySpace and
// running the full batch per user — for every algorithm, composed with
// workers, caching, kernels, sharding and replica faults.

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

TEST(OverlayBatchTest, MatchesRebuildWithKernelsAndCache) {
  const OverlayWorkload& wl = SharedWorkload();
  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, wl.instance.data, Algorithm::kSRS);
  ASSERT_TRUE(prep.ok()) << prep.status();
  EngineOptions opts;
  opts.num_workers = 3;
  opts.rs.use_kernels = true;
  opts.cache_pages = 32;
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
    EngineOptions opts;
    opts.num_workers = workers;
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
      EXPECT_EQ(rows, baseline) << "workers=" << workers;
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
      wl.queries.size() * ((users + kOverlayGroup - 1) / kOverlayGroup);
  EXPECT_LE(got->recheck_scans, max_scans);
  EXPECT_GT(got->recheck_scans, 0u);
  EXPECT_GT(got->recheck_checks, 0u);
  EXPECT_GT(got->overlay_io.Total(), 0u);
  EXPECT_GT(got->ModeledMakespanMillis(), 0.0);
  EXPECT_GT(got->ModeledQps(), 0.0);
  // The base batch is carried inside and already complete.
  EXPECT_EQ(got->base.results.size(), wl.queries.size());
}

TEST(OverlayBatchTest, ClassificationMatchesPerUserRowSensitive) {
  // The per-column user bitmasks against MatrixOverlay::RowSensitive, the
  // definition of sensitivity: 70 users cross a 64-bit word, one user is
  // null and one empty, and a strict attribute subset leaves an attribute
  // whose patches must not count.
  const OverlayWorkload& wl = SharedWorkload();
  const SimilaritySpace& space = wl.instance.space;
  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, wl.instance.data, Algorithm::kBRS);
  ASSERT_TRUE(prep.ok()) << prep.status();
  Rng rng(4242);
  std::vector<std::unique_ptr<MatrixOverlay>> owned;
  std::vector<const MatrixOverlay*> users;
  for (int u = 0; u < 70; ++u) {
    owned.push_back(std::make_unique<MatrixOverlay>(
        MakeRandomOverlay(space, rng, 0.01 * static_cast<double>(u % 7))));
    users.push_back(owned.back().get());
  }
  users[3] = nullptr;
  owned.push_back(std::make_unique<MatrixOverlay>(space));
  users[66] = owned.back().get();

  ReplicaSet replicas(&disk, ReplicaSetOptions{});
  RowBatch all(wl.instance.data.num_attributes(), false);
  ASSERT_TRUE(prep->stored.ReadAll(&all).ok());
  for (const std::vector<AttrId>& selection :
       {std::vector<AttrId>{}, std::vector<AttrId>{0, 2}}) {
    OverlayExecContext ctx;
    ctx.replicas = &replicas;
    ctx.data = &prep->stored;
    ctx.space = &space;
    ctx.selected = ResolveSelectedAttrs(prep->stored.schema(), selection);
    OverlayClassification cls;
    ASSERT_TRUE(ClassifyOverlayRows(ctx, users, &cls).ok());
    ASSERT_EQ(cls.rows_scanned, all.size());

    std::vector<std::vector<RowId>> want(users.size()), got(users.size());
    RowBatch want_stash(all.num_attrs(), false);
    for (size_t i = 0; i < all.size(); ++i) {
      bool any = false;
      for (size_t u = 0; u < users.size(); ++u) {
        if (users[u] != nullptr &&
            users[u]->RowSensitive(all.row_values(i), ctx.selected)) {
          want[u].push_back(all.id(i));
          any = true;
        }
      }
      if (any) want_stash.Append(all.id(i), all.row_values(i), nullptr);
    }
    for (size_t u = 0; u < users.size(); ++u) {
      for (uint32_t idx : cls.user_rows[u]) {
        got[u].push_back(cls.sensitive.id(idx));
      }
    }
    EXPECT_EQ(got, want) << "selection size " << selection.size();
    ASSERT_EQ(cls.sensitive.size(), want_stash.size());
    for (size_t i = 0; i < want_stash.size(); ++i) {
      EXPECT_EQ(cls.sensitive.id(i), want_stash.id(i)) << i;
    }
    EXPECT_TRUE(got[3].empty());
    EXPECT_TRUE(got[66].empty());
    EXPECT_FALSE(got[69].empty());
  }
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

// A base-space pruner of stashed row i of `all`: its values and numerics.
struct Pruner {
  std::vector<ValueId> values;
  std::vector<double> numerics;
  const double* numerics_or_null() const {
    return numerics.empty() ? nullptr : numerics.data();
  }
};

// The hint the engine records for a candidate: the first pruner a search
// of the shard indexes meets — built here as the engine builds them
// (BuildShardIndex over each non-empty shard file, levels in the
// attr_order, asked in shard order, the candidate's own leaf skipped only
// in the tree that holds it) — with its values and exact numerics, or
// nothing when the candidate has no pruner. `ctx` holds the candidate,
// whose row id is `id`.
class IndexHints {
 public:
  explicit IndexHints(const ShardedDataset& sharded) {
    const Schema& schema = sharded.base().stored.schema();
    for (int s = 0; s < sharded.num_shards(); ++s) {
      const StoredDataset& shard = sharded.shard(s);
      if (sharded.num_shards() > 1 && shard.num_rows() == 0) continue;
      ALTree& tree = trees_.emplace_back(schema, sharded.base().attr_order);
      PagedReader reader(shard.disk());
      NMRS_CHECK(BuildShardIndex(shard, &reader, &tree).ok());
      levels_.emplace_back(tree, ResolveSelectedAttrs(schema, {}));
    }
  }

  std::optional<Pruner> operator()(RowId id, const PruneContext& ctx) {
    for (size_t t = 0; t < trees_.size(); ++t) {
      const ALTree& tree = trees_[t];
      ALTree::NodeId self = tree.FindLeaf(ctx.candidate_values());
      if (self != ALTree::kInvalidNode) {
        const auto rows = tree.LeafRows(self);
        if (std::find(rows.begin(), rows.end(), id) == rows.end()) {
          self = ALTree::kInvalidNode;
        }
      }
      QueryStats stats;
      const ALTree::NodeId leaf = internal_tree::FindPrunerFast(
          tree, levels_[t].Bind(ctx, id), self, &stats, stack_,
          levels_[t].exact());
      if (leaf == ALTree::kInvalidNode) continue;
      const size_t m = tree.schema().num_attributes();
      Pruner y{std::vector<ValueId>(m), {}};
      internal_tree::LeafValues(tree, leaf, tree.attr_order(), &y.values);
      if (tree.has_numerics()) {
        const double* x = tree.LeafNumerics(leaf, levels_[t].exact()->entry);
        y.numerics.assign(x, x + m);
      }
      return y;
    }
    return std::nullopt;
  }

 private:
  std::deque<ALTree> trees_;
  std::deque<internal_tree::IndexLevels> levels_;
  std::vector<internal_tree::FastEntry> stack_;
};

// Builds a guaranteed hint miss and an unhinted row, then checks that the
// re-checks still match the per-user rebuild with counters identical at 1,
// 2 and 8 workers, over `num_shards` z-order shards of `prep`. The hints
// come from IndexHints under query 0.
void ExpectHintMissFallsBack(const PreparedDataset& prep,
                             const SimilaritySpace& space,
                             const std::vector<Object>& queries,
                             const MatrixOverlay& extra_user,
                             int num_shards = 1) {
  const Schema& schema = prep.stored.schema();
  ShardPlanOptions plan;
  plan.num_shards = num_shards;
  auto sharded = ShardedDataset::Partition(prep, plan);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  IndexHints hint_of(*sharded);
  const Object& query = queries[0];
  auto base = RunReverseSkyline(prep, space, query, Algorithm::kBRS, {});
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_FALSE(base->rows.empty());
  const auto in_base = [&](RowId id) {
    return std::binary_search(base->rows.begin(), base->rows.end(), id);
  };

  RowBatch all(schema.num_attributes(), schema.NumNumeric() > 0);
  ASSERT_TRUE(prep.stored.ReadAll(&all).ok());
  const std::vector<AttrId> selected = ResolveSelectedAttrs(schema, {});
  const QueryDistanceTable base_table(space, schema, query, selected);
  PruneContext ctx(space, schema, query, selected, &base_table);

  // A row X outside the base answer, its hint Y, and a categorical
  // attribute where Y differs from both X and the query.
  size_t x = all.size();
  Pruner y;
  AttrId attr = 0;
  for (size_t i = 0; i < all.size() && x == all.size(); ++i) {
    if (in_base(all.id(i))) continue;
    ctx.SetCandidate(all.row_values(i), all.row_numerics(i));
    std::optional<Pruner> hint = hint_of(all.id(i), ctx);
    ASSERT_TRUE(hint.has_value())
        << "row outside the base answer has no pruner";
    for (AttrId a : selected) {
      if (!space.IsNumeric(a) && hint->values[a] != all.value(i, a) &&
          hint->values[a] != query.values[a]) {
        x = i;
        y = *hint;
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
  ASSERT_TRUE(miss.Set(attr, y.values[attr], xa, far).ok());
  {
    const QueryDistanceTable table(space, schema, query, selected, &miss);
    PruneContext overlaid(space, schema, query, selected, &table);
    overlaid.SetCandidate(all.row_values(x), all.row_numerics(x));
    uint64_t checks = 0;
    ASSERT_FALSE(overlaid.Prunes(y.values.data(), y.numerics_or_null(),
                                 &checks));
  }

  // User 1 also makes a base-answer row Z sensitive: Z has no hint at all.
  const RowId z_id = base->rows.front();
  size_t z = 0;
  while (all.id(z) != z_id) ++z;
  AttrId za = selected.front();
  while (space.IsNumeric(za)) ++za;
  const ValueId zv = all.value(z, za);
  const ValueId from = zv == 0 ? 1 : 0;
  MatrixOverlay unhinted(space);
  ASSERT_TRUE(unhinted.Set(attr, y.values[attr], xa, far).ok());
  ASSERT_TRUE(
      unhinted.Set(za, from, zv, 0.5 * space.CatDist(za, from, zv)).ok());

  const std::vector<const MatrixOverlay*> users = {&miss, &unhinted,
                                                   &extra_user};
  std::vector<uint64_t> first;
  for (size_t workers : {1u, 2u, 8u}) {
    EngineOptions opts;
    opts.num_workers = workers;
    const std::string label = "shards=" + std::to_string(num_shards) +
                              " workers=" + std::to_string(workers);
    ExpectEngineMatchesRebuild<QueryEngine>(*sharded, space, Algorithm::kBRS,
                                            opts, queries, users, label);
    QueryEngine engine(*sharded, space, Algorithm::kBRS, opts);
    auto got = engine.RunOverlayBatch(queries, users);
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

TEST(OverlayBatchTest, HintMissesAndUnhintedRowsFallBackDeterministically) {
  // All-categorical: the hint is the first pruner a search of the shard
  // index meets, so Y comes from the same tree the engine builds.
  const OverlayWorkload& wl = SharedWorkload();
  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, wl.instance.data, Algorithm::kBRS);
  ASSERT_TRUE(prep.ok()) << prep.status();
  ExpectHintMissFallsBack(*prep, wl.instance.space, wl.queries,
                          *wl.overlays[1]);
}

TEST(OverlayBatchTest, MixedSchemaHintMissesFallBackToIndex) {
  // With a numeric attribute the hint also comes from the indexes: its
  // leaf values and the exact numerics of the entry the search stopped at.
  // At 2 shards the search crosses trees, and the exact leaf step of the
  // tree that holds the pruner supplies its numerics.
  Rng rng(20261018);
  const Dataset data = GenerateMixed(900, {5, 6, 7}, 1, 8, rng);
  SimilaritySpace space;
  for (size_t card : {5, 6, 7}) {
    space.AddCategorical(MakeRandomMatrix(card, rng));
  }
  space.AddNumeric(NumericDissimilarity(0.01));
  std::vector<Object> queries;
  for (int i = 0; i < 6; ++i) queries.push_back(SampleUniformQuery(data, rng));
  const MatrixOverlay extra = MakeRandomOverlay(space, rng, 0.10);
  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, data, Algorithm::kBRS);
  ASSERT_TRUE(prep.ok()) << prep.status();
  for (int shards : {1, 2}) {
    ExpectHintMissFallsBack(*prep, space, queries, extra, shards);
  }
}

// Per-shard tables for the overlay index tests below: every (query, user)
// answer and the re-check counters {checks, pair tests, scans}.
using OverlayRows = std::vector<std::vector<std::vector<RowId>>>;

OverlayRows RowsOf(const OverlayBatchResult& b) {
  OverlayRows rows(b.results.size());
  for (size_t q = 0; q < b.results.size(); ++q) {
    for (const ReverseSkylineResult& r : b.results[q]) {
      rows[q].push_back(r.rows);
    }
  }
  return rows;
}

std::vector<uint64_t> RecheckCounters(const OverlayBatchResult& b) {
  return {b.recheck_checks, b.recheck_pair_tests, b.recheck_scans};
}

// The shard layouts the index tests run BRS over: one shard (the base file
// itself), 2 z-order shards and 3 hash shards.
struct ShardLayout {
  std::string name;
  std::optional<ShardedDataset> sharded;  // empty for one shard
};

std::vector<ShardLayout> IndexTestLayouts(const PreparedDataset& prep) {
  std::vector<ShardLayout> layouts;
  layouts.push_back({"1 shard", std::nullopt});
  ShardPlanOptions zorder;
  zorder.num_shards = 2;
  zorder.shard_by = ShardBy::kZOrderRange;
  ShardPlanOptions hash;
  hash.num_shards = 3;
  hash.shard_by = ShardBy::kHash;
  for (const ShardPlanOptions& plan : {zorder, hash}) {
    auto sharded = ShardedDataset::Partition(prep, plan);
    NMRS_CHECK(sharded.ok()) << sharded.status();
    layouts.push_back({std::to_string(plan.num_shards) +
                           (plan.shard_by == ShardBy::kHash ? " hash"
                                                            : " z-order") +
                           " shards",
                       std::move(*sharded)});
  }
  return layouts;
}

std::unique_ptr<QueryEngine> MakeEngine(const PreparedDataset& prep,
                                        const ShardLayout& layout,
                                        const SimilaritySpace& space,
                                        Algorithm algo, EngineOptions opts) {
  if (!layout.sharded.has_value()) {
    return std::make_unique<QueryEngine>(prep, space, algo, std::move(opts));
  }
  return std::make_unique<QueryEngine>(*layout.sharded, space, algo,
                                       std::move(opts));
}

TEST(OverlayBatchTest, IndexBuildAndReuseCountersIndependentOfWorkers) {
  // The hints and re-checks search every active shard's index, which an
  // engine's first overlay batch builds whole and later ones only read.
  // Per shard layout, re-check counters must not depend on which batch
  // built the trees or on the worker count. At one shard only the building
  // batch's overlay_io carries the build's reads; at more, the first base
  // batch's exchange verify has built every tree already. Counters
  // do depend on the shard count, as every other counter does
  // (docs/SHARDING.md); the one-shard values are pinned, since one shard's
  // tree is the whole base file's.
  const OverlayWorkload& wl = SharedWorkload();
  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, wl.instance.data, Algorithm::kBRS);
  ASSERT_TRUE(prep.ok()) << prep.status();
  const uint64_t pages = prep->stored.num_pages();

  {
    QueryEngine plain(*prep, wl.instance.space, Algorithm::kBRS, {});
    auto batch = plain.RunBatch(wl.queries);
    ASSERT_TRUE(batch.ok()) << batch.status();
    EXPECT_EQ(plain.shard_index_bytes(0), 0u);
  }

  for (const ShardLayout& layout : IndexTestLayouts(*prep)) {
    const uint64_t build_pages = layout.sharded.has_value() ? 0 : pages;
    std::vector<uint64_t> want;
    for (size_t workers : {1u, 2u, 8u}) {
      const std::string label =
          layout.name + " workers=" + std::to_string(workers);
      EngineOptions opts;
      opts.num_workers = workers;
      const std::unique_ptr<QueryEngine> engine = MakeEngine(
          *prep, layout, wl.instance.space, Algorithm::kBRS, opts);
      auto index_bytes = [&] {
        std::vector<size_t> bytes;
        for (int s = 0; s < engine->num_shards(); ++s) {
          bytes.push_back(engine->shard_index_bytes(s));
        }
        return bytes;
      };
      EXPECT_EQ(index_bytes(), std::vector<size_t>(engine->num_shards(), 0))
          << label;
      auto first = engine->RunOverlayBatch(wl.queries, wl.OverlayPtrs());
      ASSERT_TRUE(first.ok()) << first.status();
      ASSERT_TRUE(first->ok()) << first->first_error();
      const std::vector<size_t> bytes = index_bytes();
      for (size_t b : bytes) EXPECT_GT(b, 0u) << label;
      auto second = engine->RunOverlayBatch(wl.queries, wl.OverlayPtrs());
      ASSERT_TRUE(second.ok()) << second.status();
      ASSERT_TRUE(second->ok()) << second->first_error();
      EXPECT_EQ(index_bytes(), bytes) << label;

      // The reuse batch reads only the classification scan, every page
      // once; a building batch also reads the file it builds from once.
      EXPECT_EQ(second->overlay_io.TotalReads(), pages) << label;
      EXPECT_EQ(second->overlay_io.TotalWrites(), 0u) << label;
      EXPECT_EQ(first->overlay_io.TotalReads(), pages + build_pages)
          << label;

      for (const OverlayBatchResult* b : {&*first, &*second}) {
        if (want.empty()) want = RecheckCounters(*b);
        EXPECT_EQ(RecheckCounters(*b), want) << label;
      }
    }
    if (!layout.sharded.has_value()) {
      // Re-pinned from {212416, 31782, 8} when the pruner search began
      // with the candidate's own leaf: a hint found there is a duplicate,
      // whose diagonal entry no overlay patches, so more hints survive the
      // re-check. Rows did not move. Re-pinned from {94945, 30145, 8} when
      // the search began with the memo of the previous candidates'
      // pruners: a hint found there is a neighbour rather than a duplicate,
      // which an overlay patch can break, so fewer hints survive. Rows did
      // not move.
      EXPECT_EQ(want, (std::vector<uint64_t>{112707, 32026, 8}));
    }
  }
}

TEST(OverlayBatchTest, IndexBuildAndReuseRowsIndependentOfShards) {
  // Whichever trees the searches ask, and in whichever batch, every
  // (query, user) answer is the same at every shard and worker count.
  const OverlayWorkload& wl = SharedWorkload();
  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, wl.instance.data, Algorithm::kBRS);
  ASSERT_TRUE(prep.ok()) << prep.status();

  OverlayRows want;
  for (const ShardLayout& layout : IndexTestLayouts(*prep)) {
    for (size_t workers : {1u, 8u}) {
      const std::string label =
          layout.name + " workers=" + std::to_string(workers);
      EngineOptions opts;
      opts.num_workers = workers;
      const std::unique_ptr<QueryEngine> engine = MakeEngine(
          *prep, layout, wl.instance.space, Algorithm::kBRS, opts);
      for (int batch = 0; batch < 2; ++batch) {
        auto got = engine->RunOverlayBatch(wl.queries, wl.OverlayPtrs());
        ASSERT_TRUE(got.ok()) << got.status();
        ASSERT_TRUE(got->ok()) << got->first_error();
        if (want.empty()) want = RowsOf(*got);
        EXPECT_EQ(RowsOf(*got), want) << label << " batch " << batch;
      }
    }
  }
}

TEST(OverlayBatchTest, OneShardTrsOverlaySearchesTheResidentTree) {
  // A one-shard TRS engine keeps its shard's tree resident from the first
  // batch on, and at one shard that tree is the whole base file's. The
  // overlay stages search it rather than build a second one, so the
  // overlay batch reads the file once, for the classification.
  const OverlayWorkload& wl = SharedWorkload();
  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, wl.instance.data, Algorithm::kTRS);
  ASSERT_TRUE(prep.ok()) << prep.status();
  const uint64_t pages = prep->stored.num_pages();
  EngineOptions opts;
  opts.num_workers = 2;
  QueryEngine engine(*prep, wl.instance.space, Algorithm::kTRS, opts);
  auto got = engine.RunOverlayBatch(wl.queries, wl.OverlayPtrs());
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(got->ok()) << got->first_error();

  // The base batch built the resident tree, one read per page, and the
  // overlay batch added no build.
  EXPECT_EQ(got->base.total_io.TotalReads(), pages);
  EXPECT_EQ(got->overlay_io.TotalReads(), pages);
  ALTree whole(prep->stored.schema(), prep->attr_order);
  PagedReader reader(prep->stored.disk());
  ASSERT_TRUE(BuildShardIndex(prep->stored, &reader, &whole).ok());
  EXPECT_EQ(engine.shard_index_bytes(0), whole.MemoryBytes());

  const auto want = RebuildReference(*prep, Algorithm::kTRS, opts);
  for (size_t q = 0; q < wl.queries.size(); ++q) {
    for (size_t u = 0; u < wl.overlays.size(); ++u) {
      EXPECT_EQ(got->results[q][u].rows, want[q][u])
          << "q=" << q << " u=" << u;
    }
  }
}

}  // namespace
}  // namespace nmrs
