#include "altree/al_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "data/generators.h"
#include "order/attribute_order.h"

namespace nmrs {
namespace {

using NodeId = ALTree::NodeId;

ALTree MakeTree(const Schema& schema) {
  return ALTree(schema, IdentityOrder(schema));
}

// LeafRows as a vector, for EXPECT_EQ against expected ids.
std::vector<RowId> RowsOf(const ALTree& tree, NodeId leaf) {
  const auto rows = tree.LeafRows(leaf);
  return {rows.begin(), rows.end()};
}

TEST(ALTreeTest, EmptyTree) {
  Schema s = Schema::Categorical({3, 3});
  ALTree tree = MakeTree(s);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.num_objects(), 0u);
  EXPECT_EQ(tree.num_nodes(), 1u);  // root
  EXPECT_TRUE(tree.Children(ALTree::kRootId).empty());
}

TEST(ALTreeTest, InsertBuildsPath) {
  Schema s = Schema::Categorical({3, 3});
  ALTree tree = MakeTree(s);
  const ValueId row[] = {1, 2};
  tree.Insert(7, row, nullptr);
  EXPECT_EQ(tree.num_objects(), 1u);
  EXPECT_EQ(tree.num_nodes(), 3u);  // root + 2 levels
  ASSERT_EQ(tree.Children(ALTree::kRootId).size(), 1u);
  NodeId l0 = tree.Children(ALTree::kRootId)[0].id;
  EXPECT_EQ(tree.Value(l0), 1u);
  EXPECT_EQ(tree.Level(l0), 0u);
  EXPECT_FALSE(tree.IsLeaf(l0));
  ASSERT_EQ(tree.Children(l0).size(), 1u);
  NodeId leaf = tree.Children(l0)[0].id;
  EXPECT_TRUE(tree.IsLeaf(leaf));
  EXPECT_EQ(tree.Value(leaf), 2u);
  EXPECT_EQ(RowsOf(tree, leaf), (std::vector<RowId>{7}));
}

TEST(ALTreeTest, SharedPrefixesShareNodes) {
  Schema s = Schema::Categorical({3, 3, 3});
  ALTree tree = MakeTree(s);
  const ValueId r1[] = {1, 2, 0};
  const ValueId r2[] = {1, 2, 1};
  const ValueId r3[] = {1, 0, 1};
  tree.Insert(0, r1, nullptr);
  tree.Insert(1, r2, nullptr);
  tree.Insert(2, r3, nullptr);
  // root + {1} + {1,2},{1,0} + 3 leaves = 1 + 1 + 2 + 3 = 7.
  EXPECT_EQ(tree.num_nodes(), 7u);
  EXPECT_EQ(tree.num_objects(), 3u);
  EXPECT_EQ(tree.Descendants(ALTree::kRootId), 3u);
  NodeId l0 = tree.Children(ALTree::kRootId)[0].id;
  EXPECT_EQ(tree.Descendants(l0), 3u);
}

TEST(ALTreeTest, DuplicatesAccumulateAtLeaf) {
  Schema s = Schema::Categorical({2, 2});
  ALTree tree = MakeTree(s);
  const ValueId row[] = {0, 1};
  tree.Insert(10, row, nullptr);
  tree.Insert(20, row, nullptr);
  tree.Insert(30, row, nullptr);
  EXPECT_EQ(tree.num_nodes(), 3u);
  NodeId leaf = tree.FindLeaf(row);
  ASSERT_NE(leaf, ALTree::kInvalidNode);
  EXPECT_EQ(tree.LeafCount(leaf), 3u);
  EXPECT_EQ(RowsOf(tree, leaf), (std::vector<RowId>{10, 20, 30}));
}

TEST(ALTreeTest, AttrOrderControlsLevels) {
  Schema s = Schema::Categorical({2, 5});
  ALTree tree(s, {1, 0});  // attribute 1 at the root level
  const ValueId row[] = {1, 4};  // attr0=1, attr1=4
  tree.Insert(0, row, nullptr);
  NodeId l0 = tree.Children(ALTree::kRootId)[0].id;
  EXPECT_EQ(tree.Value(l0), 4u);  // attr 1's value
  NodeId leaf = tree.Children(l0)[0].id;
  EXPECT_EQ(tree.Value(leaf), 1u);
}

TEST(ALTreeTest, FindLeafMissing) {
  Schema s = Schema::Categorical({2, 2});
  ALTree tree = MakeTree(s);
  const ValueId row[] = {0, 0};
  const ValueId other[] = {1, 1};
  tree.Insert(0, row, nullptr);
  EXPECT_EQ(tree.FindLeaf(other), ALTree::kInvalidNode);
}

TEST(ALTreeTest, RemoveLeafUpdatesCounts) {
  Schema s = Schema::Categorical({2, 2});
  ALTree tree = MakeTree(s);
  const ValueId a[] = {0, 0};
  const ValueId b[] = {0, 1};
  tree.Insert(1, a, nullptr);
  tree.Insert(2, a, nullptr);
  tree.Insert(3, b, nullptr);
  NodeId leaf_a = tree.FindLeaf(a);
  tree.RemoveLeaf(leaf_a);
  EXPECT_EQ(tree.num_objects(), 1u);
  EXPECT_EQ(tree.LeafCount(leaf_a), 0u);
  EXPECT_TRUE(tree.LeafRows(leaf_a).empty());
  // The shared level-0 node keeps the sibling's count.
  NodeId l0 = tree.Children(ALTree::kRootId)[0].id;
  EXPECT_EQ(tree.Descendants(l0), 1u);
}

TEST(ALTreeTest, RemoveLeafEntryEvictsOne) {
  Schema s = Schema::Categorical({2, 2});
  ALTree tree = MakeTree(s);
  const ValueId row[] = {1, 1};
  tree.Insert(10, row, nullptr);
  tree.Insert(20, row, nullptr);
  tree.Insert(30, row, nullptr);
  NodeId leaf = tree.FindLeaf(row);
  tree.RemoveLeafEntry(leaf, 1);  // evict id 20
  EXPECT_EQ(tree.LeafCount(leaf), 2u);
  EXPECT_EQ(RowsOf(tree, leaf), (std::vector<RowId>{10, 30}));
  EXPECT_EQ(tree.num_objects(), 2u);
}

TEST(ALTreeTest, NumericPayloadFollowsEntries) {
  Schema s = Schema::Categorical({2});
  AttributeInfo num;
  num.is_numeric = true;
  num.cardinality = 4;
  num.range = {0.0, 1.0};
  s.AddAttribute(num);
  ALTree tree = MakeTree(s);
  const ValueId row[] = {1, 2};
  const double n1[] = {0.0, 0.55};
  const double n2[] = {0.0, 0.60};
  tree.Insert(1, row, n1);
  tree.Insert(2, row, n2);
  ASSERT_TRUE(tree.has_numerics());
  NodeId leaf = tree.FindLeaf(row);
  EXPECT_DOUBLE_EQ(tree.LeafNumerics(leaf, 0)[1], 0.55);
  EXPECT_DOUBLE_EQ(tree.LeafNumerics(leaf, 1)[1], 0.60);
  tree.RemoveLeafEntry(leaf, 0);
  EXPECT_DOUBLE_EQ(tree.LeafNumerics(leaf, 0)[1], 0.60);
}

TEST(ALTreeTest, PrepareForSearchOrdersChildrenAscending) {
  Schema s = Schema::Categorical({3, 2});
  ALTree tree = MakeTree(s);
  const ValueId rows[][2] = {{0, 0}, {1, 0}, {1, 1}, {2, 0}, {2, 1}, {2, 1}};
  for (size_t i = 0; i < 6; ++i) tree.Insert(i, rows[i], nullptr);
  tree.PrepareForSearch();
  const auto& kids = tree.Children(ALTree::kRootId);
  ASSERT_EQ(kids.size(), 3u);
  EXPECT_LE(tree.Descendants(kids[0].id), tree.Descendants(kids[1].id));
  EXPECT_LE(tree.Descendants(kids[1].id), tree.Descendants(kids[2].id));
  EXPECT_EQ(tree.Descendants(kids[2].id), 3u);  // the value-2 subtree
}

TEST(ALTreeTest, ForEachActiveLeafSkipsRemoved) {
  Schema s = Schema::Categorical({2, 2});
  ALTree tree = MakeTree(s);
  const ValueId a[] = {0, 0};
  const ValueId b[] = {1, 1};
  tree.Insert(1, a, nullptr);
  tree.Insert(2, b, nullptr);
  tree.RemoveLeaf(tree.FindLeaf(a));
  std::vector<RowId> seen;
  tree.ForEachActiveLeaf([&](NodeId l) {
    for (RowId r : tree.LeafRows(l)) seen.push_back(r);
  });
  EXPECT_EQ(seen, (std::vector<RowId>{2}));
}

TEST(ALTreeTest, ClearResetsEverything) {
  Schema s = Schema::Categorical({2, 2});
  ALTree tree = MakeTree(s);
  const ValueId row[] = {0, 0};
  tree.Insert(1, row, nullptr);
  tree.Clear();
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.num_nodes(), 1u);
  tree.Insert(2, row, nullptr);  // usable after Clear
  EXPECT_EQ(tree.num_objects(), 1u);
}

TEST(ALTreeTest, LogicalMemoryGrowsWithNodes) {
  Schema s = Schema::Categorical({4, 4});
  ALTree tree = MakeTree(s);
  const size_t empty_bytes = tree.LogicalMemoryBytes();
  const ValueId row[] = {1, 1};
  tree.Insert(1, row, nullptr);
  EXPECT_GT(tree.LogicalMemoryBytes(), empty_bytes);
  // Duplicates add no nodes -> logical size stays flat (categorical).
  const size_t one_bytes = tree.LogicalMemoryBytes();
  tree.Insert(2, row, nullptr);
  EXPECT_EQ(tree.LogicalMemoryBytes(), one_bytes);
}

TEST(ALTreeTest, PrefixCompressionBeatsFlatOnSortedData) {
  // On multi-attribute-sorted, low-cardinality data the tree's logical
  // footprint undercuts the flat row image (m * 4 bytes per row).
  Rng rng(5);
  Dataset d = GenerateNormal(2000, {10, 10, 10, 10}, rng);
  auto order = IdentityOrder(d.schema());
  ALTree tree(d.schema(), order);
  for (RowId r = 0; r < d.num_rows(); ++r) {
    tree.Insert(r, d.RowValues(r), nullptr);
  }
  EXPECT_LT(tree.LogicalMemoryBytes(), d.num_rows() * 4 * sizeof(ValueId));
}

TEST(ALTreeTest, DescendantInvariantHolds) {
  // descendants(node) == sum of descendants(children) for internal nodes,
  // == leaf count for leaves, after a random workload of ops.
  Rng rng(6);
  Dataset d = GenerateUniform(300, {5, 5, 5}, rng);
  ALTree tree(d.schema(), IdentityOrder(d.schema()));
  for (RowId r = 0; r < d.num_rows(); ++r) {
    tree.Insert(r, d.RowValues(r), nullptr);
  }
  // Remove some leaves.
  std::vector<NodeId> leaves;
  tree.ForEachActiveLeaf([&](NodeId l) { leaves.push_back(l); });
  for (size_t i = 0; i < leaves.size(); i += 3) tree.RemoveLeaf(leaves[i]);

  for (NodeId n = 0; n < tree.num_nodes(); ++n) {
    if (tree.IsLeaf(n) && n != ALTree::kRootId) {
      EXPECT_EQ(tree.Descendants(n), tree.LeafRows(n).size());
    } else {
      uint64_t sum = 0;
      for (const auto& c : tree.Children(n)) sum += tree.Descendants(c.id);
      EXPECT_EQ(tree.Descendants(n), sum);
    }
  }
}

}  // namespace
}  // namespace nmrs
