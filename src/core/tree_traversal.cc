#include "core/tree_traversal.h"

#include <algorithm>
#include <limits>
#include <span>

#include "core/dominance.h"
#include "order/attribute_order.h"

namespace nmrs {
namespace internal_tree {

using NodeId = ALTree::NodeId;

TreeQueryContext MakeTreeContext(const SimilaritySpace& space,
                                 const Schema& schema, const Object& query,
                                 const RSOptions& opts) {
  TreeQueryContext ctx;
  ctx.space = &space;
  ctx.query = query;
  ctx.attr_order = opts.attr_order.empty()
                       ? AscendingCardinalityOrder(schema)
                       : opts.attr_order;
  NMRS_CHECK_EQ(ctx.attr_order.size(), schema.num_attributes());
  ctx.attr_selected.assign(schema.num_attributes(), false);
  for (AttrId a : ResolveSelectedAttrs(schema, opts.selected_attrs)) {
    ctx.attr_selected[a] = true;
  }
  ctx.buckets.resize(schema.num_attributes());
  for (AttrId a = 0; a < schema.num_attributes(); ++a) {
    const auto& info = schema.attribute(a);
    if (info.is_numeric) ctx.buckets[a].emplace(info.range, info.cardinality);
  }
  return ctx;
}

void LeafValues(const ALTree& tree, NodeId leaf,
                const std::vector<AttrId>& attr_order,
                std::vector<ValueId>* values) {
  NodeId cur = leaf;
  while (cur != ALTree::kRootId) {
    (*values)[attr_order[tree.Level(cur)]] = tree.Value(cur);
    cur = tree.Parent(cur);
  }
}

namespace {

// The exact leaf step (ExactLeaves): the first entry of `leaf`, other than
// the candidate's own, that prunes the candidate under exact->ctx.
bool FindPrunerEntry(const ALTree& tree, NodeId leaf, ExactLeaves* exact,
                     uint64_t* checks) {
  LeafValues(tree, leaf, tree.attr_order(), &exact->values);
  const std::span<const RowId> rows = tree.LeafRows(leaf);
  for (uint32_t i = 0; i < rows.size(); ++i) {
    if (rows[i] == exact->self_id) continue;
    if (exact->ctx->Prunes(exact->values.data(), tree.LeafNumerics(leaf, i),
                           checks)) {
      exact->entry = i;
      return true;
    }
  }
  return false;
}

// Tests `leaf` as a pruner on its root-to-leaf path, one counted check per
// selected level walked from the leaf up, then the leaf step: with
// `exact`, an entry's exact values decide whatever the path's flag says
// (bucket bounds cannot prove strictness); without it the flag is the
// verdict.
template <bool kExact>
bool ProbeLeaf(const ALTree& tree, const std::vector<Phase1Level>& levels,
               NodeId leaf, ExactLeaves* exact, uint64_t* checks) {
  bool closer = false;
  for (NodeId cur = leaf; cur != ALTree::kRootId; cur = tree.Parent(cur)) {
    const Phase1Level& level = levels[tree.Level(cur)];
    if (level.col == nullptr) continue;
    const double lhs = level.col[tree.Value(cur)];
    ++*checks;
    if (lhs > level.rhs) return false;
    closer = closer || lhs < level.rhs;
  }
  return kExact ? FindPrunerEntry(tree, leaf, exact, checks) : closer;
}

// FindPrunerFast's search; kExact selects the leaf step, so the
// path-verdict instantiation has no per-leaf branch on it.
//
// The memo's leaves are probed first: candidates come in leaf order, so the
// leaf that pruned the previous candidates usually prunes this one too. A
// memo leaf equal to `self_leaf` is left to the own-path probe (with one
// instance, that instance is the candidate itself).
//
// With a self leaf, the bottom levels.size() entries of `stack` hold the
// candidate's own root-to-leaf path (entry l is its node at level l) and
// the DFS runs above them. When the own leaf holds a duplicate of the
// candidate, it is probed next. Under "M \ c" a duplicate prunes whenever
// d(x, x) <= d(q, x) on every selected level and strictly on one, which a
// zero diagonal meets for most candidates, while the DFS reaches the own
// branch no sooner than any other. The levels read col[own value], so a
// nonzero diagonal decides as in the DFS. The DFS then skips a
// single-instance child on the path, whose only instance is the candidate,
// and at its leaf level every probed leaf.
template <bool kExact>
NodeId SearchPruner(const ALTree& tree, const std::vector<Phase1Level>& levels,
                    NodeId self_leaf, QueryStats* stats,
                    std::vector<FastEntry>& stack, ExactLeaves* exact,
                    PrunerMemo* memo) {
  const uint32_t leaf_level = static_cast<uint32_t>(levels.size()) - 1;
  const bool has_self = self_leaf != ALTree::kInvalidNode;
  uint64_t checks = 0;
  auto found = [&](NodeId leaf) {
    if (memo != nullptr) memo->Note(leaf);
    stats->checks += checks;
    return leaf;
  };
  // Leaves whose verdict is known to be "no pruner"; a self leaf of one
  // instance is skipped by the DFS either way.
  NodeId probed[3] = {ALTree::kInvalidNode, ALTree::kInvalidNode, self_leaf};
  if (memo != nullptr) {
    for (size_t i = 0; i < memo->leaves.size(); ++i) {
      const NodeId leaf = memo->leaves[i];
      if (leaf == ALTree::kInvalidNode || leaf == self_leaf ||
          tree.Descendants(leaf) == 0) {
        continue;
      }
      if (ProbeLeaf<kExact>(tree, levels, leaf, exact, &checks)) {
        return found(leaf);
      }
      probed[i] = leaf;
    }
  }
  // The stack keeps its length between searches, so after a caller's first
  // search this truncates and the own path is written in place.
  stack.resize(has_self ? levels.size() : 0);
  if (has_self) {
    NodeId cur = self_leaf;
    for (uint32_t l = leaf_level + 1; l-- > 0; cur = tree.Parent(cur)) {
      stack[l].n = cur;
    }
    if (tree.Descendants(self_leaf) >= 2 &&
        ProbeLeaf<kExact>(tree, levels, self_leaf, exact, &checks)) {
      return found(self_leaf);
    }
  }
  const size_t base = stack.size();
  stack.push_back({ALTree::kRootId, 0, false});
  while (stack.size() > base) {
    const FastEntry s = stack.back();
    stack.pop_back();
    const Phase1Level& level = levels[s.level];
    const bool at_leaves = s.level == leaf_level;
    for (const ALTree::ChildRef& child : tree.Children(s.n)) {
      const NodeId p = child.id;
      // A subtree whose only instance is the candidate itself is empty.
      const uint64_t descendants = tree.Descendants(p);
      if (descendants <= 1 &&
          (descendants == 0 || (has_self && stack[s.level].n == p))) {
        continue;
      }
      if (at_leaves && (p == probed[0] || p == probed[1] || p == probed[2])) {
        continue;
      }
      bool closer = s.found_closer;
      if (level.col != nullptr) {
        const double lhs = level.col[child.value];
        ++checks;
        if (lhs > level.rhs) continue;
        closer = closer || lhs < level.rhs;
      }
      if (!at_leaves) {
        stack.push_back({p, s.level + 1, closer});
      } else if (kExact ? FindPrunerEntry(tree, p, exact, &checks) : closer) {
        return found(p);
      }
    }
  }
  // The memo's leaves failed this candidate, and in leaf order a survivor's
  // neighbours tend to survive too.
  if (memo != nullptr) memo->Reset();
  stats->checks += checks;
  return ALTree::kInvalidNode;
}

}  // namespace

NodeId FindPrunerFast(const ALTree& tree,
                      const std::vector<Phase1Level>& levels, NodeId self_leaf,
                      QueryStats* stats, std::vector<FastEntry>& stack,
                      ExactLeaves* exact, PrunerMemo* memo) {
  if (exact != nullptr) {
    return SearchPruner<true>(tree, levels, self_leaf, stats, stack, exact,
                              memo);
  }
  return SearchPruner<false>(tree, levels, self_leaf, stats, stack, nullptr,
                             memo);
}

IndexLevels::IndexLevels(const ALTree& index,
                         const std::vector<AttrId>& selected)
    : index_(index), has_numerics_(index.has_numerics()) {
  const std::vector<AttrId>& order = index.attr_order();
  selected_pos_.assign(order.size(), kUnselected);
  buckets_.resize(order.size());
  bounds_.resize(order.size());
  for (size_t l = 0; l < order.size(); ++l) {
    for (size_t k = 0; k < selected.size(); ++k) {
      if (selected[k] == order[l]) selected_pos_[l] = k;
    }
    const AttributeInfo& info = index.schema().attribute(order[l]);
    if (info.is_numeric && selected_pos_[l] != kUnselected) {
      buckets_[l].emplace(info.range, info.cardinality);
      bounds_[l].resize(info.cardinality);
    }
  }
  levels_.assign(order.size(), {nullptr, 0.0});
  exact_.values.resize(index.schema().num_attributes());
}

NodeId IndexLevels::FindPruner(const PruneContext& ctx, RowId self_id,
                               NodeId self_leaf, QueryStats* stats,
                               std::vector<FastEntry>& stack) {
  return FindPrunerFast(index_, Bind(ctx, self_id), self_leaf, stats, stack,
                        exact(), &memo_);
}

const std::vector<Phase1Level>& IndexLevels::Bind(const PruneContext& ctx,
                                                  RowId self_id) {
  for (size_t l = 0; l < levels_.size(); ++l) {
    const size_t k = selected_pos_[l];
    if (k == kUnselected) continue;
    if (!buckets_[l].has_value()) {
      levels_[l] = {ctx.CandidateColumn(k), ctx.QueryDist(k)};
      continue;
    }
    // Numeric level: no value y of bucket b is closer to c than the
    // bucket's interval is, so the bound admits every bucket that could
    // hold a pruner, while the threshold stays the exact d(q, c).
    const AttrId a = ctx.selected()[k];
    const double x = ctx.candidate_numerics()[a];
    const NumericDissimilarity& nd = ctx.space().numeric(a);
    std::vector<double>& col = bounds_[l];
    for (size_t b = 0; b < col.size(); ++b) {
      col[b] = nd.MinDist(buckets_[l]->BucketInterval(static_cast<ValueId>(b)),
                          Interval{x, x});
    }
    levels_[l] = {col.data(), ctx.QueryDist(k)};
  }
  exact_.ctx = &ctx;
  exact_.self_id = self_id;
  return levels_;
}

namespace {

// Removes every entry of `leaf` except the one whose id equals spare_id
// (whole-leaf removal when it is absent).
void EvictLeaf(ALTree& tree, NodeId leaf, RowId spare_id) {
  const auto rows = tree.LeafRows(leaf);
  bool holds_self = false;
  for (RowId r : rows) {
    if (r == spare_id) {
      holds_self = true;
      break;
    }
  }
  if (!holds_self) {
    tree.RemoveLeaf(leaf);
  } else {
    for (size_t i = rows.size(); i-- > 0;) {
      if (tree.LeafRows(leaf)[i] != spare_id) tree.RemoveLeafEntry(leaf, i);
    }
  }
}

}  // namespace

void BucketBounds::Fill(ValueId bucket) {
  if (filled[bucket] == epoch) return;
  filled[bucket] = epoch;
  const NumericDissimilarity& nd = ctx->space->numeric(attr);
  const Interval b = ctx->BucketOf(attr, bucket);
  const Interval ep{e, e};
  lhs[bucket] = nd.MinDist(ep, b) <= q_max[bucket]
                    ? std::min(nd.MaxDist(ep, b), rhs[bucket])
                    : std::numeric_limits<double>::infinity();
}

StreamLevels::StreamLevels(const TreeQueryContext& ctx)
    : ctx_(ctx), levels_(ctx.attr_order.size(), {nullptr, nullptr, nullptr}) {
  const std::vector<AttrId>& order = ctx.attr_order;
  numeric_.reserve(order.size());  // levels_ point into its elements
  for (AttrId a = 0; a < order.size(); ++a) {
    if (!ctx.attr_selected[a]) continue;
    Phase2Level& level =
        levels_[std::find(order.begin(), order.end(), a) - order.begin()];
    if (!ctx.buckets[a].has_value()) {
      level.rhs = ctx.space->matrix(a).RowFrom(ctx.query.values[a]);
      categorical_.emplace_back(&level, a);
      continue;
    }
    const NumericDissimilarity& nd = ctx.space->numeric(a);
    const Interval q{ctx.query.numerics[a], ctx.query.numerics[a]};
    BucketBounds& n = numeric_.emplace_back();
    n.ctx = &ctx;
    n.attr = a;
    for (ValueId b = 0; b < ctx.buckets[a]->num_buckets(); ++b) {
      n.rhs.push_back(nd.MinDist(q, ctx.BucketOf(a, b)));
      n.q_max.push_back(nd.MaxDist(q, ctx.BucketOf(a, b)));
    }
    n.lhs.resize(n.rhs.size());
    n.filled.assign(n.rhs.size(), 0);
    level = {n.lhs.data(), n.rhs.data(), &n};
  }
}

namespace {

// The exact leaf step: removes every entry of `leaf` but spare_id's that
// the streamed object prunes, given the path's strictness `closer`.
void PruneEntries(ALTree& tree, NodeId leaf,
                  const std::vector<BucketBounds>& numeric, bool closer,
                  RowId spare_id, uint64_t* checks) {
  for (size_t i = tree.LeafRows(leaf).size(); i-- > 0;) {
    if (tree.LeafRows(leaf)[i] == spare_id) continue;
    const double* c_num = tree.LeafNumerics(leaf, i);
    bool ok = true;
    bool strict = closer;
    for (size_t k = 0; k < numeric.size() && ok; ++k) {
      const BucketBounds& n = numeric[k];
      const SimilaritySpace& space = *n.ctx->space;
      const double lhs = space.NumDist(n.attr, n.e, c_num[n.attr]);
      const double rhs =
          space.NumDist(n.attr, n.ctx->query.numerics[n.attr], c_num[n.attr]);
      ++*checks;
      if (lhs > rhs) ok = false;
      if (lhs < rhs) strict = true;
    }
    if (ok && strict) tree.RemoveLeafEntry(leaf, i);
  }
}

// StreamLevels::PruneTree's traversal; kNumeric selects the bucket fill and
// the exact leaf step, so the all-categorical instantiation has no branch
// on them.
template <bool kNumeric>
void PruneWalk(ALTree& tree, const std::vector<Phase2Level>& levels,
               const std::vector<BucketBounds>& numeric, RowId spare_id,
               QueryStats* stats, std::vector<FastEntry>& stack) {
  const uint32_t leaf_level = static_cast<uint32_t>(levels.size()) - 1;
  stack.clear();
  stack.push_back({ALTree::kRootId, 0, false});
  uint64_t checks = 0;
  while (!stack.empty()) {
    const FastEntry s = stack.back();
    stack.pop_back();
    const Phase2Level& level = levels[s.level];
    for (const ALTree::ChildRef& child : tree.Children(s.n)) {
      const NodeId p = child.id;
      if (tree.Descendants(p) == 0) continue;
      bool closer = s.found_closer;
      if (level.lhs != nullptr) {
        if (kNumeric && level.bounds != nullptr) {
          level.bounds->Fill(child.value);
        }
        const double lhs = level.lhs[child.value];
        const double rhs = level.rhs[child.value];
        ++checks;
        if (!(lhs <= rhs)) continue;
        closer = closer || lhs < rhs;
      }
      if (s.level != leaf_level) {
        stack.push_back({p, s.level + 1, closer});
      } else if (kNumeric) {
        PruneEntries(tree, p, numeric, closer, spare_id, &checks);
      } else if (closer) {
        EvictLeaf(tree, p, spare_id);
      }
    }
  }
  stats->checks += checks;
}

}  // namespace

void StreamLevels::PruneTree(ALTree& tree, const ValueId* e_values,
                             const double* e_numerics, RowId spare_id,
                             QueryStats* stats, std::vector<FastEntry>& stack) {
  if (tree.empty()) return;
  for (const auto& [level, a] : categorical_) {
    level->lhs = ctx_.space->matrix(a).RowFrom(e_values[a]);
  }
  if (numeric_.empty()) {
    PruneWalk<false>(tree, levels_, numeric_, spare_id, stats, stack);
    return;
  }
  for (BucketBounds& n : numeric_) {
    n.e = e_numerics[n.attr];
    ++n.epoch;
  }
  PruneWalk<true>(tree, levels_, numeric_, spare_id, stats, stack);
}

Status LoadTreeBatch(const StoredDataset& data, PagedReader* reader,
                     uint64_t budget_bytes, PageId* next_page, ALTree* tree,
                     RowBatch* scratch) {
  const uint64_t total = data.num_pages();
  uint64_t loaded_pages = 0;
  while (*next_page < total &&
         (loaded_pages == 0 || tree->LogicalMemoryBytes() < budget_bytes)) {
    scratch->Clear();
    NMRS_RETURN_IF_ERROR(data.ReadPageVia(reader, *next_page, scratch));
    for (size_t i = 0; i < scratch->size(); ++i) {
      tree->Insert(scratch->id(i), scratch->row_values(i),
                   scratch->row_numerics(i));
    }
    ++*next_page;
    ++loaded_pages;
  }
  return Status::OK();
}

}  // namespace internal_tree
}  // namespace nmrs
