// Differential test: the AL-Tree against a trivially correct reference
// model (a map from value-vector to the multiset of row ids) under a
// randomized workload of Insert / RemoveLeaf / RemoveLeafEntry operations.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "altree/al_tree.h"
#include "common/rng.h"
#include "order/attribute_order.h"

namespace nmrs {
namespace {

using Key = std::vector<ValueId>;

// LeafRows as a vector, for EXPECT_EQ against the model's ids.
std::vector<RowId> RowsOf(const ALTree& tree, ALTree::NodeId leaf) {
  const auto rows = tree.LeafRows(leaf);
  return {rows.begin(), rows.end()};
}

class ReferenceModel {
 public:
  void Insert(const Key& key, RowId id) { rows_[key].push_back(id); }

  void RemoveAll(const Key& key) { rows_.erase(key); }

  void RemoveOne(const Key& key, size_t entry) {
    auto& v = rows_[key];
    v.erase(v.begin() + static_cast<ptrdiff_t>(entry));
    if (v.empty()) rows_.erase(key);
  }

  uint64_t TotalObjects() const {
    uint64_t n = 0;
    for (const auto& [k, v] : rows_) n += v.size();
    return n;
  }

  const std::map<Key, std::vector<RowId>>& rows() const { return rows_; }

 private:
  std::map<Key, std::vector<RowId>> rows_;
};

void ExpectTreeMatchesModel(const ALTree& tree, const ReferenceModel& model,
                            const std::vector<AttrId>& attr_order,
                            const Schema& schema) {
  EXPECT_EQ(tree.num_objects(), model.TotalObjects());

  // Every model group must be an active leaf with the same ids.
  for (const auto& [key, ids] : model.rows()) {
    ALTree::NodeId leaf = tree.FindLeaf(key.data());
    ASSERT_NE(leaf, ALTree::kInvalidNode);
    EXPECT_EQ(RowsOf(tree, leaf), ids);
    EXPECT_EQ(tree.LeafCount(leaf), ids.size());
  }

  // Every active tree leaf must exist in the model with matching values.
  uint64_t active_leaves = 0;
  std::vector<ValueId> values(schema.num_attributes());
  const_cast<ALTree&>(tree).ForEachActiveLeaf([&](ALTree::NodeId leaf) {
    ++active_leaves;
    // Reconstruct the leaf's values by walking parents.
    ALTree::NodeId cur = leaf;
    while (cur != ALTree::kRootId) {
      values[attr_order[tree.Level(cur)]] = tree.Value(cur);
      cur = tree.Parent(cur);
    }
    auto it = model.rows().find(values);
    ASSERT_NE(it, model.rows().end());
    EXPECT_EQ(RowsOf(tree, leaf), it->second);
  });
  EXPECT_EQ(active_leaves, model.rows().size());

  // Descendant-count invariant.
  for (ALTree::NodeId n = 0; n < tree.num_nodes(); ++n) {
    if (n != ALTree::kRootId && tree.IsLeaf(n)) {
      EXPECT_EQ(tree.Descendants(n), tree.LeafRows(n).size());
    } else {
      uint64_t sum = 0;
      for (const auto& c : tree.Children(n)) sum += tree.Descendants(c.id);
      EXPECT_EQ(tree.Descendants(n), sum);
    }
  }
}

class ALTreeFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ALTreeFuzz, RandomWorkloadMatchesReference) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const std::vector<size_t> cards = {3, 4, 2};
  Schema schema = Schema::Categorical(cards);
  const auto attr_order = AscendingCardinalityOrder(schema);
  ALTree tree(schema, attr_order);
  ReferenceModel model;

  RowId next_id = 0;
  for (int step = 0; step < 400; ++step) {
    const uint64_t op = rng.Uniform(10);
    if (op < 7 || model.TotalObjects() == 0) {
      // Insert a random object.
      Key key(cards.size());
      for (size_t a = 0; a < cards.size(); ++a) {
        key[a] = static_cast<ValueId>(rng.Uniform(cards[a]));
      }
      tree.Insert(next_id, key.data(), nullptr);
      model.Insert(key, next_id);
      ++next_id;
    } else {
      // Pick a random existing group.
      const auto& groups = model.rows();
      auto it = groups.begin();
      std::advance(it, rng.Uniform(groups.size()));
      const Key key = it->first;
      ALTree::NodeId leaf = tree.FindLeaf(key.data());
      ASSERT_NE(leaf, ALTree::kInvalidNode);
      if (op == 7) {
        tree.RemoveLeaf(leaf);
        model.RemoveAll(key);
      } else {
        const size_t entry = rng.Uniform(it->second.size());
        tree.RemoveLeafEntry(leaf, entry);
        model.RemoveOne(key, entry);
      }
    }
    if (step % 50 == 0) {
      ExpectTreeMatchesModel(tree, model, attr_order, schema);
    }
  }
  ExpectTreeMatchesModel(tree, model, attr_order, schema);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ALTreeFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace nmrs
