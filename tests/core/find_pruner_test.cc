#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "altree/al_tree.h"
#include "core/dominance.h"
#include "core/query_distance_table.h"
#include "core/tree_traversal.h"
#include "data/generators.h"
#include "sim/matrix_overlay.h"

namespace nmrs {
namespace {

using internal_tree::FastEntry;
using internal_tree::FindPrunerFast;
using internal_tree::IndexLevels;
using internal_tree::Phase1Level;
using NodeId = ALTree::NodeId;

// FindPrunerFast's self-exclusion (paper Alg. 4 over a tree that holds the
// candidate itself): searching with the candidate's own leaf must reach
// the verdict of a search over a tree built without the candidate, at most
// the own-path probe's checks (one per selected level) dearer, and must
// agree with a brute-force Definition 1 test against every other row.

// Matrices whose off-diagonal entries come from a three-value grid, so
// distances tie often and the non-strict half of Definition 1 is hit.
SimilaritySpace TieSpace(const std::vector<size_t>& cards, Rng& rng) {
  SimilaritySpace space;
  for (size_t card : cards) {
    DissimilarityMatrix m(card);
    for (ValueId a = 0; a < card; ++a) {
      for (ValueId b = 0; b < card; ++b) {
        if (a != b) m.Set(a, b, 0.5 * static_cast<double>(1 + rng.Uniform(3)));
      }
    }
    space.AddCategorical(std::move(m));
  }
  return space;
}

Dataset Rows(const std::vector<size_t>& cards,
             const std::vector<std::vector<ValueId>>& rows) {
  Dataset data(Schema::Categorical(cards));
  for (const auto& r : rows) data.AppendCategoricalRow(r);
  return data;
}

ALTree BuildTree(const Dataset& data, std::vector<AttrId> order) {
  ALTree tree(data.schema(), std::move(order));
  for (RowId r = 0; r < data.num_rows(); ++r) {
    tree.Insert(r, data.RowValues(r), nullptr);
  }
  tree.PrepareForSearch();
  return tree;
}

// Reference for the kInvalidNode case: the plain Alg. 4 search without
// self-exclusion, returning the verdict and adding its checks. A level
// without a column (outside the selection) passes every child unchecked.
bool ReferenceIsPrunableFast(const ALTree& tree,
                             const std::vector<Phase1Level>& levels,
                             uint64_t* checks_out) {
  const uint32_t leaf_level = static_cast<uint32_t>(levels.size()) - 1;
  std::vector<FastEntry> stack = {{ALTree::kRootId, 0, false}};
  uint64_t checks = 0;
  while (!stack.empty()) {
    const FastEntry s = stack.back();
    stack.pop_back();
    const Phase1Level& level = levels[s.level];
    for (const ALTree::ChildRef& child : tree.Children(s.n)) {
      if (tree.Descendants(child.id) == 0) continue;
      bool closer = s.found_closer;
      if (level.col != nullptr) {
        const double lhs = level.col[child.value];
        ++checks;
        if (lhs > level.rhs) continue;
        closer = closer || lhs < level.rhs;
      }
      if (s.level == leaf_level) {
        if (closer) {
          *checks_out += checks;
          return true;
        }
      } else {
        stack.push_back({child.id, s.level + 1, closer});
      }
    }
  }
  *checks_out += checks;
  return false;
}

std::vector<AttrId> RandomOrder(size_t m, Rng& rng) {
  std::vector<AttrId> order(m);
  for (AttrId a = 0; a < m; ++a) order[a] = a;
  for (size_t i = m; i > 1; --i) std::swap(order[i - 1], order[rng.Uniform(i)]);
  return order;
}

std::vector<AttrId> RandomSelection(size_t m, Rng& rng) {
  std::vector<AttrId> selected;
  if (rng.Bernoulli(0.5)) return selected;  // all attributes
  for (AttrId a = 0; a < m; ++a) {
    if (rng.Bernoulli(0.6)) selected.push_back(a);
  }
  if (selected.empty()) selected.push_back(static_cast<AttrId>(rng.Uniform(m)));
  return selected;
}

// `data`'s rows other than `skip`, in row order and without
// PrepareForSearch, so child lists keep insertion order; then `last`
// unless it is kInvalidRowId.
ALTree InsertionOrderTree(const Dataset& data, const std::vector<AttrId>& order,
                          RowId skip, RowId last) {
  ALTree tree(data.schema(), order);
  for (RowId r = 0; r < data.num_rows(); ++r) {
    if (r != skip) tree.Insert(r, data.RowValues(r), nullptr);
  }
  if (last != kInvalidRowId) tree.Insert(last, data.RowValues(last), nullptr);
  return tree;
}

TEST(FindPrunerFastTest, SelfExclusionMatchesBruteForceAndRebuiltTree) {
  Rng rng(20261017);
  uint64_t pruned = 0, survived = 0, self_leaf_hits = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const size_t m = 2 + rng.Uniform(3);
    std::vector<size_t> cards(m);
    for (size_t& c : cards) c = 2 + rng.Uniform(2);
    const SimilaritySpace space = TieSpace(cards, rng);
    Dataset data(Schema::Categorical(cards));
    const size_t rows = 5 + rng.Uniform(40);
    std::vector<ValueId> v(m);
    for (size_t r = 0; r < rows; ++r) {
      for (AttrId a = 0; a < m; ++a) {
        v[a] = static_cast<ValueId>(rng.Uniform(cards[a]));
      }
      data.AppendCategoricalRow(v);
    }
    const std::vector<AttrId> order = RandomOrder(m, rng);
    ALTree tree = BuildTree(data, order);
    const Schema& schema = data.schema();
    const std::vector<AttrId> selected =
        ResolveSelectedAttrs(schema, RandomSelection(m, rng));
    const Object query = SampleUniformQuery(data, rng);
    const double touch[] = {0.0, 0.2, 0.5};
    const MatrixOverlay overlay =
        MakeRandomOverlay(space, rng, touch[rng.Uniform(3)]);
    const QueryDistanceTable table(space, schema, query, selected, &overlay);
    PruneContext ctx(space, schema, query, selected, &table);
    IndexLevels levels(tree, selected);
    std::vector<FastEntry> stack;
    std::vector<ValueId> pruner(m);

    for (RowId x = 0; x < data.num_rows(); ++x) {
      const std::string label =
          "trial " + std::to_string(trial) + " row " + std::to_string(x);
      ctx.SetCandidate(data.RowValues(x), nullptr);
      bool brute = false;
      uint64_t unused = 0;
      for (RowId y = 0; y < data.num_rows() && !brute; ++y) {
        brute = y != x && ctx.Prunes(data.RowValues(y), nullptr, &unused);
      }

      const NodeId self = tree.FindLeaf(data.RowValues(x));
      ASSERT_NE(self, ALTree::kInvalidNode) << label;
      QueryStats stats;
      const NodeId got =
          FindPrunerFast(tree, levels.Bind(ctx, x), self, &stats, stack);
      ASSERT_EQ(got != ALTree::kInvalidNode, brute) << label;
      if (got != ALTree::kInvalidNode) {
        ++pruned;
        self_leaf_hits += got == self ? 1 : 0;
        ASSERT_TRUE(tree.IsLeaf(got)) << label;
        // The witness is some row other than X: the leaf holds one.
        ASSERT_GE(tree.Descendants(got), got == self ? 2u : 1u) << label;
        internal_tree::LeafValues(tree, got, tree.attr_order(), &pruner);
        EXPECT_TRUE(ctx.Prunes(pruner.data(), nullptr, &unused)) << label;
      } else {
        ++survived;
      }

      // The verdict of a tree without X, for at most the probe's checks
      // more. X goes in last and neither tree is reordered, so every node
      // the two share has the same id and the same place in its parent's
      // child list, and the nodes only X's instance fills come after them:
      // past a probe that finds no pruner, both trees run the same DFS. A
      // probe that finds one costs one check per selected level, no more
      // than any DFS spends to reach a pruner.
      const ALTree with_x = InsertionOrderTree(data, order, x, x);
      const ALTree without_x =
          InsertionOrderTree(data, order, x, kInvalidRowId);
      IndexLevels with_levels(with_x, selected);
      IndexLevels without_levels(without_x, selected);
      QueryStats with_stats, without_stats;
      const NodeId with_got = FindPrunerFast(
          with_x, with_levels.Bind(ctx, x), with_x.FindLeaf(data.RowValues(x)),
          &with_stats, stack);
      const NodeId want =
          FindPrunerFast(without_x, without_levels.Bind(ctx, x),
                         ALTree::kInvalidNode, &without_stats, stack);
      EXPECT_EQ(with_got != ALTree::kInvalidNode,
                want != ALTree::kInvalidNode)
          << label;
      EXPECT_LE(with_stats.checks, without_stats.checks + selected.size())
          << label;
      EXPECT_EQ(with_got != ALTree::kInvalidNode, brute) << label;
    }
  }
  // The sweep reaches both verdicts and duplicate witnesses.
  EXPECT_GT(pruned, 0u);
  EXPECT_GT(survived, 0u);
  EXPECT_GT(self_leaf_hits, 0u);
}

TEST(FindPrunerFastTest, NoSelfLeafMatchesThePreviousSearch) {
  Rng rng(31337);
  uint64_t pruned = 0, total = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const size_t m = 2 + rng.Uniform(3);
    std::vector<size_t> cards(m);
    for (size_t& c : cards) c = 2 + rng.Uniform(2);
    const SimilaritySpace space = TieSpace(cards, rng);
    Dataset data(Schema::Categorical(cards));
    std::vector<ValueId> v(m);
    for (size_t r = 0, rows = 5 + rng.Uniform(40); r < rows; ++r) {
      for (AttrId a = 0; a < m; ++a) {
        v[a] = static_cast<ValueId>(rng.Uniform(cards[a]));
      }
      data.AppendCategoricalRow(v);
    }
    ALTree tree = BuildTree(data, RandomOrder(m, rng));
    const Schema& schema = data.schema();
    const std::vector<AttrId> selected =
        ResolveSelectedAttrs(schema, RandomSelection(m, rng));
    const Object query = SampleUniformQuery(data, rng);
    const MatrixOverlay overlay = MakeRandomOverlay(space, rng, 0.3);
    const QueryDistanceTable table(space, schema, query, selected, &overlay);
    PruneContext ctx(space, schema, query, selected, &table);
    IndexLevels levels(tree, selected);
    std::vector<FastEntry> stack;
    // Candidates drawn from the whole value space, in the tree or not.
    for (int c = 0; c < 20; ++c) {
      for (AttrId a = 0; a < m; ++a) {
        v[a] = static_cast<ValueId>(rng.Uniform(cards[a]));
      }
      ctx.SetCandidate(v.data(), nullptr);
      const std::vector<Phase1Level>& bound =
          levels.Bind(ctx, kInvalidRowId);
      QueryStats stats;
      const NodeId got =
          FindPrunerFast(tree, bound, ALTree::kInvalidNode, &stats, stack);
      uint64_t want_checks = 0;
      const bool want = ReferenceIsPrunableFast(tree, bound, &want_checks);
      EXPECT_EQ(got != ALTree::kInvalidNode, want) << trial << "/" << c;
      EXPECT_EQ(stats.checks, want_checks) << trial << "/" << c;
      pruned += want ? 1 : 0;
      ++total;
    }
  }
  EXPECT_GT(pruned, 0u);
  EXPECT_LT(pruned, total);
}

// Two attributes of cardinality 2 with d(1, 0) = 0.5: the query (1, 1) is
// at distance 0.5 from X = (0, 0) on both, so any copy of X prunes X
// (0 <= 0.5, strictly), and Z = (1, 1) ties the query everywhere and does
// not.
struct PinnedCase {
  PinnedCase() {
    for (int a = 0; a < 2; ++a) {
      DissimilarityMatrix m(2);
      m.Set(0, 1, 0.5);
      m.Set(1, 0, 0.5);
      space.AddCategorical(std::move(m));
    }
  }
  SimilaritySpace space;
  const std::vector<size_t> cards = {2, 2};
};

// Searches for a pruner of row x of `data`, skipping x's own instance
// when `exclude_self` is set.
NodeId SearchForRow(const PinnedCase& pc, const Dataset& data, RowId x,
                    bool exclude_self) {
  const Object query(std::vector<ValueId>{1, 1});
  ALTree tree = BuildTree(data, {0, 1});
  const std::vector<AttrId> selected = ResolveSelectedAttrs(data.schema(), {});
  const QueryDistanceTable table(pc.space, data.schema(), query, selected);
  PruneContext ctx(pc.space, data.schema(), query, selected, &table);
  ctx.SetCandidate(data.RowValues(x), nullptr);
  IndexLevels levels(tree, selected);
  std::vector<FastEntry> stack;
  QueryStats stats;
  const NodeId self = exclude_self ? tree.FindLeaf(data.RowValues(x))
                                   : ALTree::kInvalidNode;
  return FindPrunerFast(tree, levels.Bind(ctx, x), self, &stats, stack);
}

TEST(FindPrunerFastTest, ExactDuplicateWithAnotherIdPrunes) {
  const PinnedCase pc;
  const Dataset data = Rows(pc.cards, {{0, 0}, {1, 1}, {0, 0}});
  const ALTree tree = BuildTree(data, {0, 1});
  const NodeId x_leaf = tree.FindLeaf(data.RowValues(0));
  // Rows 0 and 2 are each other's only pruner, and they share one leaf.
  EXPECT_EQ(SearchForRow(pc, data, 0, /*exclude_self=*/true), x_leaf);
  EXPECT_EQ(SearchForRow(pc, data, 2, /*exclude_self=*/true), x_leaf);
}

TEST(FindPrunerFastTest, RowPrunedOnlyByItselfSurvives) {
  const PinnedCase pc;
  const Dataset data = Rows(pc.cards, {{0, 0}, {1, 1}});
  // d(x, x) = 0 < d(q, x): without the exclusion X would prune itself.
  EXPECT_EQ(SearchForRow(pc, data, 0, /*exclude_self=*/true),
            ALTree::kInvalidNode);
  EXPECT_NE(SearchForRow(pc, data, 0, /*exclude_self=*/false),
            ALTree::kInvalidNode);
}

// On a numeric index the levels only bound distances from below, so a
// path that admits a leaf strictly proves nothing: IndexLevels::FindPruner
// must refine the leaf's entries exactly.
TEST(IndexLevelsTest, FindPrunerRefinesNumericLeavesExactly) {
  Schema schema;
  schema.AddAttribute(AttributeInfo{"x", 2, true, Interval{0.0, 10.0}});
  SimilaritySpace space;
  space.AddNumeric(NumericDissimilarity(1.0));
  Dataset data(schema);
  data.AppendRow({0}, {4.9});  // bucket [0, 5), like c: MinDist 0 < d(q, c)
  ALTree tree(schema, {0});
  tree.Insert(0, data.RowValues(0), data.RowNumerics(0));
  tree.PrepareForSearch();

  const Object query = data.MakeObject({0}, {3.0});
  const Object c = data.MakeObject({0}, {0.0});  // d(q, c) = 3 < d(y, c)
  const std::vector<AttrId> selected = ResolveSelectedAttrs(schema, {});
  const QueryDistanceTable table(space, schema, query, selected);
  PruneContext ctx(space, schema, query, selected, &table);
  ctx.SetCandidate(c.values.data(), c.numerics.data());
  IndexLevels levels(tree, selected);
  std::vector<FastEntry> stack;
  QueryStats stats;
  EXPECT_NE(FindPrunerFast(tree, levels.Bind(ctx, kInvalidRowId),
                           ALTree::kInvalidNode, &stats, stack),
            ALTree::kInvalidNode);  // the path verdict alone prunes c
  EXPECT_EQ(levels.FindPruner(ctx, kInvalidRowId, ALTree::kInvalidNode,
                              &stats, stack),
            ALTree::kInvalidNode);
}

// The own-path probe reads the diagonal from the matrix, like the DFS: a
// duplicate of X prunes X only when d(x, x) <= d(q, x) on every selected
// level and strictly on one. Here d_0(0, 0) = 0.9 > d_0(1, 0) = 0.5, so the
// copies of X = (0, 0) do not prune each other, and (2, 2), at 0.8 on
// attribute 0, prunes nothing. At d_0(0, 0) = 0.1 the copies prune each
// other, found by the probe in one check per level.
TEST(FindPrunerFastTest, OwnPathProbeReadsNonzeroDiagonal) {
  for (const double diagonal : {0.9, 0.1}) {
    SCOPED_TRACE(diagonal);
    SimilaritySpace space;
    for (int a = 0; a < 2; ++a) {
      DissimilarityMatrix m(3);
      for (ValueId u = 0; u < 3; ++u) {
        for (ValueId v = 0; v < 3; ++v) {
          if (u != v) m.Set(u, v, u == 2 ? 0.8 : 0.5);
        }
      }
      if (a == 0) m.Set(0, 0, diagonal);
      space.AddCategorical(std::move(m));
    }
    const Dataset data =
        Rows({3, 3}, {{0, 0}, {2, 2}, {0, 0}, {2, 2}, {2, 2}});
    const ALTree tree = BuildTree(data, {0, 1});
    const Object query(std::vector<ValueId>{1, 1});
    const std::vector<AttrId> selected =
        ResolveSelectedAttrs(data.schema(), {});
    const QueryDistanceTable table(space, data.schema(), query, selected);
    PruneContext ctx(space, data.schema(), query, selected, &table);
    IndexLevels levels(tree, selected);
    std::vector<FastEntry> stack;
    const NodeId x_leaf = tree.FindLeaf(data.RowValues(0));
    for (RowId x : {0u, 2u}) {
      ctx.SetCandidate(data.RowValues(x), nullptr);
      QueryStats stats;
      const NodeId got =
          FindPrunerFast(tree, levels.Bind(ctx, x), x_leaf, &stats, stack);
      if (diagonal > 0.5) {
        EXPECT_EQ(got, ALTree::kInvalidNode) << x;
      } else {
        EXPECT_EQ(got, x_leaf) << x;
        EXPECT_EQ(stats.checks, selected.size()) << x;
      }
    }
  }
}

// A candidate equal to the query on every selected attribute has no strict
// level against anything (0 < d(q, x) = 0 is impossible), so its duplicate
// passes every level of the probe and still must not prune it. The
// unselected attribute 1 differs from the query and passes unchecked.
TEST(FindPrunerFastTest, OwnPathProbeNeedsAStrictLevel) {
  Rng rng(77);
  const std::vector<size_t> cards = {3, 3, 3};
  const SimilaritySpace space = TieSpace(cards, rng);
  const Dataset data = Rows(cards, {{1, 0, 2}, {0, 1, 1}, {1, 0, 2}, {2, 2, 0}});
  const ALTree tree = BuildTree(data, {0, 1, 2});
  const Object query(std::vector<ValueId>{1, 2, 2});
  const std::vector<AttrId> selected =
      ResolveSelectedAttrs(data.schema(), {0, 2});
  const QueryDistanceTable table(space, data.schema(), query, selected);
  PruneContext ctx(space, data.schema(), query, selected, &table);
  IndexLevels levels(tree, selected);
  std::vector<FastEntry> stack;
  const NodeId x_leaf = tree.FindLeaf(data.RowValues(0));
  ASSERT_EQ(tree.Descendants(x_leaf), 2u);
  for (RowId x : {0u, 2u}) {
    ctx.SetCandidate(data.RowValues(x), nullptr);
    QueryStats stats;
    EXPECT_EQ(FindPrunerFast(tree, levels.Bind(ctx, x), x_leaf, &stats, stack),
              ALTree::kInvalidNode)
        << x;
  }
}

// A numeric index (one attribute, buckets [0, 5) and [5, 10]) whose leaf
// for bucket 0 holds X = 1.0, a non-pruner at 4.5 and, in the first case,
// a pruner at 1.5; d(q, X) = 2 for q = 3. The bucket bound admits the leaf
// strictly (MinDist 0 < 2), so only the exact entry step decides: the
// probe must find the pruner past the non-pruner and X itself, and must
// not prune X on the bound alone.
TEST(FindPrunerFastTest, OwnPathProbeRefinesNumericLeafEntries) {
  Schema schema;
  schema.AddAttribute(AttributeInfo{"x", 2, true, Interval{0.0, 10.0}});
  SimilaritySpace space;
  space.AddNumeric(NumericDissimilarity(1.0));
  for (const bool with_pruner : {true, false}) {
    SCOPED_TRACE(with_pruner);
    Dataset data(schema);
    data.AppendRow({0}, {1.0});  // X, row 0
    data.AppendRow({0}, {4.5});  // d = 3.5 > 2
    if (with_pruner) data.AppendRow({0}, {1.5});  // d = 0.5 < 2
    data.AppendRow({1}, {9.0});  // bucket 1: MinDist 4 > 2
    ALTree tree(schema, {0});
    for (RowId r = 0; r < data.num_rows(); ++r) {
      tree.Insert(r, data.RowValues(r), data.RowNumerics(r));
    }
    tree.PrepareForSearch();

    const Object query = data.MakeObject({0}, {3.0});
    const std::vector<AttrId> selected = ResolveSelectedAttrs(schema, {});
    const QueryDistanceTable table(space, schema, query, selected);
    PruneContext ctx(space, schema, query, selected, &table);
    ctx.SetCandidate(data.RowValues(0), data.RowNumerics(0));
    IndexLevels levels(tree, selected);
    std::vector<FastEntry> stack;
    QueryStats stats;
    const NodeId x_leaf = tree.FindLeaf(data.RowValues(0));
    const NodeId got = levels.FindPruner(ctx, 0, x_leaf, &stats, stack);
    if (with_pruner) {
      EXPECT_EQ(got, x_leaf);
      EXPECT_EQ(levels.exact()->entry, 2u);
      EXPECT_EQ(tree.LeafNumerics(x_leaf, 2)[0], 1.5);
    } else {
      EXPECT_EQ(got, ALTree::kInvalidNode);
    }
  }
}

// The memo (PrunerMemo): a search may test the leaves that pruned earlier
// candidates first, but the verdict stays the DFS's.

// Row 0 = X = (0, 0) is pruned only by itself (RowPrunedOnlyByItselfSurvives):
// a memo that holds X's own single-instance leaf, whose only instance is
// X, must not prune X, and a search without a pruner empties the memo.
TEST(PrunerMemoTest, OwnSingleInstanceLeafInMemoDoesNotPrune) {
  const PinnedCase pc;
  const Dataset data = Rows(pc.cards, {{0, 0}, {1, 1}});
  const ALTree tree = BuildTree(data, {0, 1});
  const Object query(std::vector<ValueId>{1, 1});
  const std::vector<AttrId> selected = ResolveSelectedAttrs(data.schema(), {});
  const QueryDistanceTable table(pc.space, data.schema(), query, selected);
  PruneContext ctx(pc.space, data.schema(), query, selected, &table);
  ctx.SetCandidate(data.RowValues(0), nullptr);
  IndexLevels levels(tree, selected);
  std::vector<FastEntry> stack;
  const NodeId x_leaf = tree.FindLeaf(data.RowValues(0));
  ASSERT_EQ(tree.Descendants(x_leaf), 1u);
  for (const size_t slot : {0u, 1u}) {
    SCOPED_TRACE(slot);
    internal_tree::PrunerMemo memo;
    memo.leaves[slot] = x_leaf;
    QueryStats stats;
    EXPECT_EQ(FindPrunerFast(tree, levels.Bind(ctx, 0), x_leaf, &stats, stack,
                             nullptr, &memo),
              ALTree::kInvalidNode);
    EXPECT_EQ(memo.leaves[0], ALTree::kInvalidNode);
    EXPECT_EQ(memo.leaves[1], ALTree::kInvalidNode);
  }
}

// A numeric index whose bucket-0 leaf holds X = 1.0 (row 0) and a
// non-pruner at 4.5, with d(q, X) = 2 for q = 3 (as in
// OwnPathProbeRefinesNumericLeafEntries without the pruner). The bucket
// bound admits that leaf strictly, so only the exact entry step can keep X:
// with the leaf in the memo, X must survive whether the search knows X's
// leaf or only X's row id (the memo then tests the leaf itself).
TEST(PrunerMemoTest, NumericOwnLeafInMemoRefinesEntries) {
  Schema schema;
  schema.AddAttribute(AttributeInfo{"x", 2, true, Interval{0.0, 10.0}});
  SimilaritySpace space;
  space.AddNumeric(NumericDissimilarity(1.0));
  Dataset data(schema);
  data.AppendRow({0}, {1.0});  // X, row 0
  data.AppendRow({0}, {4.5});  // d = 3.5 > 2
  data.AppendRow({1}, {9.0});  // bucket 1: MinDist 4 > 2
  ALTree tree(schema, {0});
  for (RowId r = 0; r < data.num_rows(); ++r) {
    tree.Insert(r, data.RowValues(r), data.RowNumerics(r));
  }
  tree.PrepareForSearch();

  const Object query = data.MakeObject({0}, {3.0});
  const std::vector<AttrId> selected = ResolveSelectedAttrs(schema, {});
  const QueryDistanceTable table(space, schema, query, selected);
  PruneContext ctx(space, schema, query, selected, &table);
  ctx.SetCandidate(data.RowValues(0), data.RowNumerics(0));
  IndexLevels levels(tree, selected);
  std::vector<FastEntry> stack;
  const NodeId x_leaf = tree.FindLeaf(data.RowValues(0));
  for (const NodeId self : {x_leaf, ALTree::kInvalidNode}) {
    SCOPED_TRACE(self == x_leaf ? "own leaf" : "row id only");
    levels.memo().Reset();
    levels.memo().Note(x_leaf);
    QueryStats stats;
    EXPECT_EQ(levels.FindPruner(ctx, 0, self, &stats, stack),
              ALTree::kInvalidNode);
  }
}

// Three values per attribute with d(2, v) = 0.8 and every other
// off-diagonal entry 0.5; q = (1, 1) and X = (0, 0), so the threshold is
// 0.5 on both levels. The memo's (2, 2) fails the first level it tests
// (0.8 > 0.5); the search must fall through to the DFS, which finds (0, 1)
// (strict on attribute 0) and notes it, or, without (0, 1), keeps X.
TEST(PrunerMemoTest, FailingMemoLeafFallsThroughToTheSearch) {
  SimilaritySpace space;
  for (int a = 0; a < 2; ++a) {
    DissimilarityMatrix m(3);
    for (ValueId u = 0; u < 3; ++u) {
      for (ValueId v = 0; v < 3; ++v) {
        if (u != v) m.Set(u, v, u == 2 ? 0.8 : 0.5);
      }
    }
    space.AddCategorical(std::move(m));
  }
  for (const bool with_pruner : {true, false}) {
    SCOPED_TRACE(with_pruner);
    std::vector<std::vector<ValueId>> rows = {{0, 0}, {2, 2}};
    if (with_pruner) rows.push_back({0, 1});
    const Dataset data = Rows({3, 3}, rows);
    const ALTree tree = BuildTree(data, {0, 1});
    const Object query(std::vector<ValueId>{1, 1});
    const std::vector<AttrId> selected =
        ResolveSelectedAttrs(data.schema(), {});
    const QueryDistanceTable table(space, data.schema(), query, selected);
    PruneContext ctx(space, data.schema(), query, selected, &table);
    ctx.SetCandidate(data.RowValues(0), nullptr);
    IndexLevels levels(tree, selected);
    std::vector<FastEntry> stack;
    const NodeId x_leaf = tree.FindLeaf(data.RowValues(0));
    const NodeId far_leaf = tree.FindLeaf(data.RowValues(1));

    QueryStats plain_stats;
    const NodeId want = FindPrunerFast(tree, levels.Bind(ctx, 0), x_leaf,
                                       &plain_stats, stack);
    internal_tree::PrunerMemo memo;
    memo.Note(far_leaf);
    QueryStats stats;
    const NodeId got = FindPrunerFast(tree, levels.Bind(ctx, 0), x_leaf,
                                      &stats, stack, nullptr, &memo);
    EXPECT_EQ(got, want);
    // The failed memo leaf costs one check (its leaf level).
    EXPECT_EQ(stats.checks, plain_stats.checks + 1);
    if (with_pruner) {
      EXPECT_EQ(got, tree.FindLeaf(data.RowValues(2)));
      EXPECT_EQ(memo.leaves[0], got);
      EXPECT_EQ(memo.leaves[1], far_leaf);
    } else {
      EXPECT_EQ(got, ALTree::kInvalidNode);
      EXPECT_EQ(memo.leaves[0], ALTree::kInvalidNode);
    }
  }
}

// Random trees, every row a candidate in leaf order through one memo, as
// the callers search: the verdict must match brute force, and the leaf
// returned must hold a pruner other than the candidate itself.
TEST(PrunerMemoTest, MemoChainMatchesBruteForce) {
  Rng rng(20261022);
  uint64_t pruned = 0, survived = 0, memo_hits = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const size_t m = 2 + rng.Uniform(3);
    std::vector<size_t> cards(m);
    for (size_t& c : cards) c = 2 + rng.Uniform(2);
    const SimilaritySpace space = TieSpace(cards, rng);
    Dataset data(Schema::Categorical(cards));
    std::vector<ValueId> v(m);
    for (size_t r = 0, rows = 5 + rng.Uniform(40); r < rows; ++r) {
      for (AttrId a = 0; a < m; ++a) {
        v[a] = static_cast<ValueId>(rng.Uniform(cards[a]));
      }
      data.AppendCategoricalRow(v);
    }
    const ALTree tree = BuildTree(data, RandomOrder(m, rng));
    const Schema& schema = data.schema();
    const std::vector<AttrId> selected =
        ResolveSelectedAttrs(schema, RandomSelection(m, rng));
    const Object query = SampleUniformQuery(data, rng);
    const MatrixOverlay overlay = MakeRandomOverlay(space, rng, 0.3);
    const QueryDistanceTable table(space, schema, query, selected, &overlay);
    PruneContext ctx(space, schema, query, selected, &table);
    IndexLevels levels(tree, selected);
    std::vector<FastEntry> stack;
    std::vector<ValueId> pruner(m);
    tree.ForEachActiveLeaf([&](NodeId leaf) {
      for (RowId x : tree.LeafRows(leaf)) {
        const std::string label =
            "trial " + std::to_string(trial) + " row " + std::to_string(x);
        ctx.SetCandidate(data.RowValues(x), nullptr);
        bool brute = false;
        uint64_t unused = 0;
        for (RowId y = 0; y < data.num_rows() && !brute; ++y) {
          brute = y != x && ctx.Prunes(data.RowValues(y), nullptr, &unused);
        }
        const internal_tree::PrunerMemo before = levels.memo();
        QueryStats stats;
        const NodeId got = levels.FindPruner(ctx, x, leaf, &stats, stack);
        ASSERT_EQ(got != ALTree::kInvalidNode, brute) << label;
        if (got == ALTree::kInvalidNode) {
          ++survived;
          continue;
        }
        ++pruned;
        memo_hits += got != leaf && (got == before.leaves[0] ||
                                     got == before.leaves[1]);
        ASSERT_TRUE(tree.IsLeaf(got)) << label;
        ASSERT_GE(tree.Descendants(got), got == leaf ? 2u : 1u) << label;
        internal_tree::LeafValues(tree, got, tree.attr_order(), &pruner);
        EXPECT_TRUE(ctx.Prunes(pruner.data(), nullptr, &unused)) << label;
        EXPECT_EQ(levels.memo().leaves[0], got) << label;
      }
    });
  }
  EXPECT_GT(pruned, 0u);
  EXPECT_GT(survived, 0u);
  EXPECT_GT(memo_hits, 0u);
}

}  // namespace
}  // namespace nmrs
