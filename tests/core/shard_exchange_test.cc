#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "altree/al_tree.h"
#include "core/shard_exchange.h"
#include "core/tree_traversal.h"
#include "data/generators.h"
#include "exec/query_engine.h"
#include "order/attribute_order.h"
#include "sim/matrix_overlay.h"
#include "storage/disk.h"
#include "storage/paged_reader.h"
#include "testing/test_util.h"

namespace nmrs {
namespace {

// The verify round of the pruner exchange (docs/SHARDING.md, step 4): the
// indexed path (BuildShardIndex + PruneCandidatesWithIndex) must return
// exactly the verdicts of the flat scan (testing::PruneCandidatesAgainstShard),
// the oracle, under every selection and overlay, with and without numeric
// attributes.

// Asymmetric, non-metric matrix whose entries come from a four-value
// grid, so distances tie often and the non-strict half of Definition 1
// (d(y, x) <= d(q, x) with equality on some attributes) is exercised.
DissimilarityMatrix GridMatrix(size_t card, Rng& rng) {
  DissimilarityMatrix m(card);
  for (ValueId a = 0; a < card; ++a) {
    for (ValueId b = 0; b < card; ++b) {
      if (a != b) m.Set(a, b, 0.25 * static_cast<double>(1 + rng.Uniform(4)));
    }
  }
  return m;
}

SimilaritySpace GridSpace(const std::vector<size_t>& cards, Rng& rng) {
  SimilaritySpace space;
  for (size_t card : cards) space.AddCategorical(GridMatrix(card, rng));
  return space;
}

// Rows drawn uniformly; every fifth row is a copy of an earlier one, so the
// index holds duplicate leaves.
Dataset RandomRows(const std::vector<size_t>& cards, size_t rows, Rng& rng) {
  Dataset data(Schema::Categorical(cards));
  std::vector<ValueId> v(cards.size());
  for (size_t r = 0; r < rows; ++r) {
    if (r > 0 && r % 5 == 0) {
      const RowId src = rng.Uniform(r);
      for (AttrId a = 0; a < cards.size(); ++a) v[a] = data.Value(src, a);
    } else {
      for (AttrId a = 0; a < cards.size(); ++a) {
        v[a] = static_cast<ValueId>(rng.Uniform(cards[a]));
      }
    }
    data.AppendCategoricalRow(v);
  }
  return data;
}

// A value of numeric attribute `info` from a grid of eleven points that
// includes lo, hi and, for 2 or 5 buckets, every bucket boundary, so exact
// numeric ties and boundary values are common.
double GridNumeric(const AttributeInfo& info, Rng& rng) {
  return info.range.lo + info.range.width() * 0.1 *
                             static_cast<double>(rng.Uniform(11));
}

// Categorical attributes of `cards` followed by `num_numeric` numeric ones
// over [-3, 7] with 2 or 5 buckets; rows drawn from the grids, and every
// fifth row a copy of an earlier one.
Dataset MixedRows(const std::vector<size_t>& cards, size_t num_numeric,
                  size_t rows, Rng& rng) {
  Schema schema = Schema::Categorical(cards);
  for (size_t i = 0; i < num_numeric; ++i) {
    schema.AddAttribute(AttributeInfo{"num" + std::to_string(i),
                                      rng.Bernoulli(0.5) ? 2u : 5u, true,
                                      Interval{-3.0, 7.0}});
  }
  Dataset data(schema);
  const size_t m = schema.num_attributes();
  std::vector<ValueId> v(m, 0);
  std::vector<double> x(m, 0.0);
  for (size_t r = 0; r < rows; ++r) {
    if (r > 0 && r % 5 == 0) {
      const RowId src = rng.Uniform(r);
      for (AttrId a = 0; a < m; ++a) {
        v[a] = data.Value(src, a);
        x[a] = data.Numeric(src, a);
      }
    } else {
      for (AttrId a = 0; a < m; ++a) {
        const AttributeInfo& info = schema.attribute(a);
        if (info.is_numeric) {
          x[a] = GridNumeric(info, rng);
        } else {
          v[a] = static_cast<ValueId>(rng.Uniform(info.cardinality));
        }
      }
    }
    data.AppendRow(v, x);
  }
  return data;
}

// Foreign candidates: ids past the shard's, half with fresh values and
// half copying the values of some shard row.
RowBatch ForeignCandidates(const Dataset& shard, size_t n, Rng& rng) {
  const size_t m = shard.num_attributes();
  RowBatch out(m, shard.has_numerics());
  std::vector<ValueId> v(m, 0);
  std::vector<double> x(m, 0.0);
  for (size_t i = 0; i < n; ++i) {
    Object c;
    if (i % 2 == 0) {
      c = shard.GetObject(rng.Uniform(shard.num_rows()));
    } else {
      for (AttrId a = 0; a < m; ++a) {
        const AttributeInfo& info = shard.schema().attribute(a);
        if (info.is_numeric) {
          x[a] = GridNumeric(info, rng);
        } else {
          v[a] = static_cast<ValueId>(rng.Uniform(info.cardinality));
        }
      }
      c = shard.MakeObject(v, x);
    }
    out.Append(shard.num_rows() + 1000 + i, c.values.data(),
               shard.has_numerics() ? c.numerics.data() : nullptr);
  }
  return out;
}

// One shard on its own disk, verified both ways.
class ShardUnderTest {
 public:
  ShardUnderTest(const Dataset& rows, std::vector<AttrId> attr_order)
      : disk_(512),
        stored_(*StoredDataset::Create(&disk_, rows, "shard")),
        index_(rows.schema(), std::move(attr_order)) {
    PagedReader reader(&disk_);
    NMRS_CHECK(BuildShardIndex(stored_, &reader, &index_).ok());
    NMRS_CHECK_EQ(index_.num_objects(), rows.num_rows());
  }

  // Returns the flat scan's verdicts; fails the test unless the indexed
  // verdicts equal them.
  std::vector<uint8_t> ExpectSameVerdicts(const SimilaritySpace& space,
                                          const Object& query,
                                          const RowBatch& candidates,
                                          const RSOptions& opts,
                                          const std::string& label) {
    std::vector<uint8_t> want;
    QueryStats scan_stats;
    PagedReader reader(&disk_);
    EXPECT_TRUE(testing::PruneCandidatesAgainstShard(
                    stored_, space, query, candidates, opts, &reader, &want,
                    &scan_stats)
                    .ok())
        << label;
    // The oracle's kernel path must agree with its scalar path.
    std::vector<uint8_t> kernel;
    QueryStats kernel_stats;
    RSOptions kernel_opts = opts;
    kernel_opts.use_kernels = true;
    PagedReader kernel_reader(&disk_);
    EXPECT_TRUE(testing::PruneCandidatesAgainstShard(
                    stored_, space, query, candidates, kernel_opts,
                    &kernel_reader, &kernel, &kernel_stats)
                    .ok())
        << label;
    EXPECT_EQ(kernel, want) << label;
    std::vector<uint8_t> got;
    QueryStats tree_stats;
    PruneCandidatesWithIndex(index_, space, query, candidates, opts, &got,
                             &tree_stats);
    EXPECT_EQ(got, want) << label;
    EXPECT_EQ(tree_stats.pair_tests, candidates.size()) << label;
    EXPECT_EQ(tree_stats.io.Total(), 0u) << label;
    return want;
  }

 private:
  SimulatedDisk disk_;
  StoredDataset stored_;
  ALTree index_;
};

size_t NumPruned(const std::vector<uint8_t>& verdicts) {
  return static_cast<size_t>(
      std::accumulate(verdicts.begin(), verdicts.end(), 0));
}

Object RowAsQuery(const RowBatch& batch, size_t i) {
  const ValueId* v = batch.row_values(i);
  Object q(std::vector<ValueId>(v, v + batch.num_attrs()));
  if (const double* x = batch.row_numerics(i)) {
    q.numerics.assign(x, x + batch.num_attrs());
  }
  return q;
}

TEST(ShardExchangeTest, IndexedVerdictsMatchFlatScanOnRandomInstances) {
  size_t pruned = 0;
  size_t kept = 0;
  for (uint64_t seed = 1; seed <= 80; ++seed) {
    Rng rng(seed);
    const size_t m = 3 + rng.Uniform(4);
    std::vector<size_t> cards(m);
    for (size_t& c : cards) c = 2 + rng.Uniform(6);
    const SimilaritySpace space = GridSpace(cards, rng);
    const Dataset rows = RandomRows(cards, 5 + rng.Uniform(80), rng);
    // Any level order gives the same verdicts; alternate between the
    // default and a random permutation.
    std::vector<AttrId> order = AscendingCardinalityOrder(rows.schema());
    if (seed % 2 == 0) order = RandomOrder(rows.schema(), rng);
    ShardUnderTest shard(rows, order);
    const RowBatch cands = ForeignCandidates(rows, 40, rng);

    const std::string label = "seed=" + std::to_string(seed);
    for (int k = 0; k < 3; ++k) {
      const Object query = SampleUniformQuery(rows, rng);
      const size_t p = NumPruned(shard.ExpectSameVerdicts(
          space, query, cands, {}, label + " query " + std::to_string(k)));
      pruned += p;
      kept += cands.size() - p;
    }
    // A query equal to a candidate: that candidate has distance zero to
    // the query on every attribute, so nothing can prune it strictly.
    const size_t c = rng.Uniform(cands.size());
    shard.ExpectSameVerdicts(space, RowAsQuery(cands, c), cands, {},
                             label + " query=candidate");
  }
  // Both verdicts must be well represented, or the equality says little.
  EXPECT_GT(pruned, 2000u);
  EXPECT_GT(kept, 800u);

  // Mixed schemas: 1-2 numeric attributes whose index levels only bound
  // the distance by bucket, so the leaves' exact values decide.
  pruned = 0;
  kept = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(1000 + seed);
    std::vector<size_t> cards(1 + rng.Uniform(3));
    for (size_t& c : cards) c = 2 + rng.Uniform(4);
    SimilaritySpace space = GridSpace(cards, rng);
    const Dataset rows =
        MixedRows(cards, 1 + rng.Uniform(2), 5 + rng.Uniform(80), rng);
    for (AttrId a = cards.size(); a < rows.num_attributes(); ++a) {
      space.AddNumeric(NumericDissimilarity(0.25 * (1 + rng.Uniform(2))));
    }
    std::vector<AttrId> order = AscendingCardinalityOrder(rows.schema());
    if (seed % 2 == 0) order = RandomOrder(rows.schema(), rng);
    ShardUnderTest shard(rows, order);
    const RowBatch cands = ForeignCandidates(rows, 40, rng);

    const std::string label = "mixed seed=" + std::to_string(seed);
    for (int k = 0; k < 3; ++k) {
      const Object query = RowAsQuery(ForeignCandidates(rows, 1, rng), 0);
      const size_t p = NumPruned(shard.ExpectSameVerdicts(
          space, query, cands, {}, label + " query " + std::to_string(k)));
      pruned += p;
      kept += cands.size() - p;
    }
    const size_t c = rng.Uniform(cands.size());
    shard.ExpectSameVerdicts(space, RowAsQuery(cands, c), cands, {},
                             label + " query=candidate");
  }
  EXPECT_GT(pruned, 1000u);
  EXPECT_GT(kept, 500u);
}

TEST(ShardExchangeTest, QueryEqualToCandidateIsNeverPruned) {
  Rng rng(7);
  const std::vector<size_t> cards = {3, 4, 5};
  const SimilaritySpace space = GridSpace(cards, rng);
  const Dataset rows = RandomRows(cards, 200, rng);
  ShardUnderTest shard(rows, AscendingCardinalityOrder(rows.schema()));
  const RowBatch cands = ForeignCandidates(rows, 30, rng);
  for (size_t c = 0; c < cands.size(); ++c) {
    RowBatch one(cards.size(), false);
    one.Append(cands.id(c), cands.row_values(c), nullptr);
    EXPECT_EQ(NumPruned(shard.ExpectSameVerdicts(
                  space, RowAsQuery(cands, c), one, {},
                  "candidate " + std::to_string(c))),
              0u);
  }
}

TEST(ShardExchangeTest, EveryAttributeSubsetOfThreeAttributes) {
  Rng rng(11);
  const std::vector<size_t> cards = {4, 5, 6};
  const SimilaritySpace space = GridSpace(cards, rng);
  const Dataset rows = RandomRows(cards, 250, rng);
  const RowBatch cands = ForeignCandidates(rows, 60, rng);
  std::vector<Object> queries;
  for (int k = 0; k < 4; ++k) queries.push_back(SampleUniformQuery(rows, rng));
  for (const std::vector<AttrId>& order :
       {std::vector<AttrId>{0, 1, 2}, std::vector<AttrId>{2, 0, 1}}) {
    ShardUnderTest shard(rows, order);
    for (unsigned mask = 1; mask < 8; ++mask) {
      RSOptions opts;
      for (AttrId a = 0; a < 3; ++a) {
        if (mask & (1u << a)) opts.selected_attrs.push_back(a);
      }
      size_t pruned = 0;
      for (size_t k = 0; k < queries.size(); ++k) {
        pruned += NumPruned(shard.ExpectSameVerdicts(
            space, queries[k], cands, opts,
            "mask=" + std::to_string(mask) + " order[0]=" +
                std::to_string(order[0]) + " query " + std::to_string(k)));
      }
      EXPECT_GT(pruned, 0u) << "mask=" << mask;
      EXPECT_LT(pruned, queries.size() * cands.size()) << "mask=" << mask;
    }
  }
}

TEST(ShardExchangeTest, OverlayVerdictsMatchFlatScan) {
  Rng rng(23);
  const std::vector<size_t> cards = {5, 6, 7, 4};
  const SimilaritySpace space = GridSpace(cards, rng);
  const Dataset rows = RandomRows(cards, 40, rng);
  ShardUnderTest shard(rows, AscendingCardinalityOrder(rows.schema()));
  const RowBatch cands = ForeignCandidates(rows, 60, rng);
  size_t differs = 0;
  for (double touch : {0.05, 0.3}) {
    Rng fork = rng.Fork();
    const MatrixOverlay overlay = MakeRandomOverlay(space, fork, touch);
    for (int k = 0; k < 4; ++k) {
      const Object query = SampleUniformQuery(rows, rng);
      RSOptions opts;
      opts.overlay = &overlay;
      const std::vector<uint8_t> with = shard.ExpectSameVerdicts(
          space, query, cands, opts, "overlay touch=" + std::to_string(touch));
      opts.selected_attrs = {0, 2};
      shard.ExpectSameVerdicts(space, query, cands, opts,
                               "overlay + subset touch=" +
                                   std::to_string(touch));
      const std::vector<uint8_t> without =
          shard.ExpectSameVerdicts(space, query, cands, {}, "base space");
      differs += with != without ? 1 : 0;
    }
  }
  // The overlay must actually change verdicts somewhere.
  EXPECT_GT(differs, 0u);
}

TEST(ShardExchangeTest, EmptyCandidateBatch) {
  Rng rng(31);
  const std::vector<size_t> cards = {3, 3};
  const SimilaritySpace space = GridSpace(cards, rng);
  const Dataset rows = RandomRows(cards, 50, rng);
  ShardUnderTest shard(rows, {0, 1});
  const RowBatch none(2, false);
  EXPECT_TRUE(shard.ExpectSameVerdicts(space, SampleUniformQuery(rows, rng),
                                       none, {}, "empty")
                  .empty());

  // And an empty shard prunes nothing.
  const Dataset empty(Schema::Categorical(cards));
  ShardUnderTest empty_shard(empty, {0, 1});
  EXPECT_EQ(NumPruned(empty_shard.ExpectSameVerdicts(
                space, SampleUniformQuery(rows, rng),
                ForeignCandidates(rows, 10, rng), {}, "empty shard")),
            0u);
}

TEST(ShardExchangeTest, NumericSchemaVerifiesFromIndex) {
  // Every schema verifies from the shards' indexes: a mixed schema builds
  // one per shard as a categorical one does, and its rows still equal the
  // single-shard rows.
  Rng rng(41);
  const std::vector<size_t> cards = {5, 6, 7};
  for (bool numeric : {false, true}) {
    const Dataset data = numeric ? GenerateMixed(900, cards, 2, 8, rng)
                                 : GenerateNormal(900, cards, rng);
    SimilaritySpace space;
    for (size_t card : cards) space.AddCategorical(MakeRandomMatrix(card, rng));
    if (numeric) {
      space.AddNumeric(NumericDissimilarity(0.01));
      space.AddNumeric(NumericDissimilarity(0.02));
    }
    std::vector<Object> queries;
    for (int i = 0; i < 6; ++i) {
      queries.push_back(SampleUniformQuery(data, rng));
    }

    SimulatedDisk disk;
    auto prep = PrepareDataset(&disk, data, Algorithm::kBRS);
    ASSERT_TRUE(prep.ok()) << prep.status();
    std::vector<std::vector<RowId>> want;
    for (int shards : {1, 2}) {
      ShardPlanOptions plan;
      plan.num_shards = shards;
      auto sharded = ShardedDataset::Partition(*prep, plan);
      ASSERT_TRUE(sharded.ok()) << sharded.status();
      QueryEngine engine(*sharded, space, Algorithm::kBRS);
      auto batch = engine.RunBatch(queries);
      ASSERT_TRUE(batch.ok()) << batch.status();
      ASSERT_TRUE(batch->ok()) << batch->first_error();
      for (size_t q = 0; q < queries.size(); ++q) {
        if (shards == 1) {
          want.push_back(batch->results[q].rows);
        } else {
          EXPECT_EQ(batch->results[q].rows, want[q])
              << "numeric=" << numeric << " query " << q;
        }
      }
      for (int s = 0; s < shards; ++s) {
        if (shards == 1) {
          EXPECT_EQ(engine.shard_index_bytes(s), 0u)
              << "numeric=" << numeric;
        } else {
          EXPECT_GT(engine.shard_index_bytes(s), 0u)
              << "numeric=" << numeric << " shard " << s;
        }
      }
    }
  }
}

// The LeafTable of a shard index (BuildLeafTable) against the tree it was
// built from: leaf order, search offsets and leaf values. Then resident
// TRS's exported candidates, which come from the table, against a batch
// built straight from the tree over the surviving rows: same ids, values,
// numerics and order, at one and at three threads.
TEST(ShardExchangeTest, LeafTableMatchesTheTreeAndFeedsResidentExport) {
  size_t survivors = 0;
  size_t shared_leaves = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(2000 + seed);
    // All-categorical, all-numeric and mixed schemas in turn.
    const int kind = static_cast<int>(seed % 3);
    std::vector<size_t> cards;
    if (kind != 1) cards.resize(1 + rng.Uniform(3));
    for (size_t& c : cards) c = 2 + rng.Uniform(4);
    SimilaritySpace space = GridSpace(cards, rng);
    const size_t rows_n = 20 + rng.Uniform(150);
    const Dataset rows = kind == 0 ? RandomRows(cards, rows_n, rng)
                                   : MixedRows(cards, 1 + rng.Uniform(2),
                                               rows_n, rng);
    for (AttrId a = cards.size(); a < rows.num_attributes(); ++a) {
      space.AddNumeric(NumericDissimilarity(0.25 * (1 + rng.Uniform(2))));
    }
    std::vector<AttrId> order = AscendingCardinalityOrder(rows.schema());
    if (seed % 2 == 0) order = RandomOrder(rows.schema(), rng);
    SimulatedDisk disk(512);
    const StoredDataset stored = *StoredDataset::Create(&disk, rows, "shard");
    ALTree index(rows.schema(), order);
    PagedReader reader(&disk);
    ASSERT_TRUE(BuildShardIndex(stored, &reader, &index).ok());
    const std::string label = "seed=" + std::to_string(seed) +
                              " kind=" + std::to_string(kind);

    const LeafTable table = BuildLeafTable(index);
    const size_t m = rows.num_attributes();
    std::vector<ALTree::NodeId> walk;
    index.ForEachActiveLeaf([&](ALTree::NodeId l) { walk.push_back(l); });
    ASSERT_EQ(table.leaves, walk) << label;
    ASSERT_EQ(table.first.size(), walk.size() + 1) << label;
    EXPECT_EQ(table.first[0], 0u) << label;
    std::vector<ValueId> values(m, 0);
    for (size_t li = 0; li < walk.size(); ++li) {
      const uint32_t searches =
          index.has_numerics() ? index.LeafCount(walk[li]) : 1;
      EXPECT_EQ(table.first[li + 1] - table.first[li], searches)
          << label << " leaf " << li;
      internal_tree::LeafValues(index, walk[li], index.attr_order(), &values);
      EXPECT_TRUE(std::equal(values.begin(), values.end(),
                             table.leaf_values(li)))
          << label << " leaf " << li;
      shared_leaves += index.LeafCount(walk[li]) > 1 ? 1 : 0;
    }

    const Object query = RowAsQuery(ForeignCandidates(rows, 1, rng), 0);
    for (int threads : {1, 3}) {
      RSOptions opts;
      opts.num_threads = threads;
      RowBatch got(m, rows.has_numerics());
      const ReverseSkylineResult result = ResidentReverseSkyline(
          index, table, space, query, opts, ExecContext{}, &got);
      RowBatch want(m, rows.has_numerics());
      for (const ALTree::NodeId leaf : walk) {
        internal_tree::LeafValues(index, leaf, index.attr_order(), &values);
        const std::span<const RowId> ids = index.LeafRows(leaf);
        for (size_t i = 0; i < ids.size(); ++i) {
          if (!std::binary_search(result.rows.begin(), result.rows.end(),
                                  ids[i])) {
            continue;
          }
          want.Append(ids[i], values.data(),
                      index.has_numerics() ? index.LeafNumerics(leaf, i)
                                           : nullptr);
        }
      }
      const std::string run = label + " threads=" + std::to_string(threads);
      ASSERT_EQ(got.size(), want.size()) << run;
      ASSERT_EQ(got.size(), result.rows.size()) << run;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got.id(i), want.id(i)) << run << " row " << i;
        EXPECT_TRUE(std::equal(want.row_values(i), want.row_values(i) + m,
                               got.row_values(i)))
            << run << " row " << i;
        if (rows.has_numerics()) {
          EXPECT_TRUE(std::equal(want.row_numerics(i),
                                 want.row_numerics(i) + m,
                                 got.row_numerics(i)))
              << run << " row " << i;
        }
      }
      survivors += want.size();
    }
  }
  // Answers and leaves holding several rows must both occur, or the
  // equalities say little.
  EXPECT_GT(survivors, 400u);
  EXPECT_GT(shared_leaves, 150u);
}

}  // namespace
}  // namespace nmrs
