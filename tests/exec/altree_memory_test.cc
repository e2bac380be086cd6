// The AL-Tree's two footprints. LogicalMemoryBytes() is the paper's model
// that sizes TRS batches, so it must not move with the C++ layout: it is
// pinned on fixed inputs. MemoryBytes() is the real heap footprint (leaf
// arenas at their capacity); for the 100k-row two-shard verify index of
// bench_shards it must stay at or below what the per-node-vector layout it
// replaced reported for the same index.
#include <gtest/gtest.h>

#include <vector>

#include "altree/al_tree.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "exec/query_engine.h"
#include "order/attribute_order.h"
#include "order/multi_sort.h"
#include "shard/shard_plan.h"

namespace nmrs {
namespace {

// Inserts `data` in PrepareDataset's stored order (multi-attribute sort on
// the tree's attribute order), the order TRS loads its batches in.
ALTree BuildSorted(const Dataset& data) {
  const std::vector<AttrId> order = AscendingCardinalityOrder(data.schema());
  ALTree tree(data.schema(), order);
  for (RowId r : MultiAttributeSortOrder(data, order)) {
    tree.Insert(r, data.RowValues(r),
                data.schema().NumNumeric() > 0 ? data.RowNumerics(r) : nullptr);
  }
  return tree;
}

TEST(ALTreeMemoryTest, LogicalBytesArePinned) {
  Rng rng(42);
  Rng cat_rng = rng.Fork();
  Rng mixed_rng = rng.Fork();
  const ALTree cat = BuildSorted(GenerateNormal(100000, {12, 12, 12, 12},
                                                cat_rng));
  EXPECT_EQ(cat.LogicalMemoryBytes(), 66872u);
  const ALTree mixed = BuildSorted(GenerateMixed(5000, {5, 4}, 2, 4,
                                                 mixed_rng));
  EXPECT_EQ(mixed.LogicalMemoryBytes(), 163240u);
}

TEST(ALTreeMemoryTest, VerifyIndexBytesAtMostVectorLayout) {
  // bench_shards' instance: seed 42, 100k normal rows over 4 x 12 values.
  Rng rng(42);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  const std::vector<size_t> cards(4, 12);
  const Dataset data = GenerateNormal(100000, cards, data_rng);
  SimilaritySpace space;
  for (size_t card : cards) {
    space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }
  std::vector<Object> queries;
  for (int i = 0; i < 4; ++i) queries.push_back(SampleUniformQuery(data, rng));

  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, data, Algorithm::kBRS);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  ShardPlanOptions plan;
  plan.num_shards = 2;
  auto sharded = ShardedDataset::Partition(*prepared, plan);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  QueryEngine engine(*sharded, space, Algorithm::kBRS, EngineOptions{});
  auto batch = engine.RunBatch(queries);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_TRUE(batch->ok()) << batch->first_error();

  const size_t bytes =
      engine.shard_index_bytes(0) + engine.shard_index_bytes(1);
  EXPECT_GT(engine.shard_index_bytes(0), 0u);
  EXPECT_GT(engine.shard_index_bytes(1), 0u);
  // The per-node-vector layout reported this for the same two indexes
  // (BENCH_shards.json's 2-shard verify_index_bytes before the arenas).
  constexpr size_t kVectorLayoutBytes = 2117568;
  EXPECT_LE(bytes, kVectorLayoutBytes);
}

}  // namespace
}  // namespace nmrs
