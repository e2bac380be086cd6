#include "core/tree_traversal.h"

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
  ctx.schema = &schema;
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
  ctx.fast_path = schema.NumNumeric() == 0;
  for (bool sel : ctx.attr_selected) ctx.fast_path &= sel;
  if (ctx.fast_path) {
    ctx.q_row_by_level.resize(ctx.attr_order.size());
    for (size_t l = 0; l < ctx.attr_order.size(); ++l) {
      const AttrId a = ctx.attr_order[l];
      ctx.q_row_by_level[l] = space.matrix(a).RowFrom(ctx.query.values[a]);
    }
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

// Whether `node`, a child at level `level`, lies on the root-to-leaf path
// of `self_leaf` (leaves sit at `leaf_level`).
bool OnSelfPath(const ALTree& tree, NodeId node, uint32_t level,
                uint32_t leaf_level, NodeId self_leaf) {
  NodeId cur = self_leaf;
  for (uint32_t l = leaf_level; l > level; --l) cur = tree.Parent(cur);
  return cur == node;
}

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

// FindPrunerFast's search; kExact selects the leaf step, so the
// path-verdict instantiation has no per-leaf branch on it.
template <bool kExact>
NodeId SearchPruner(const ALTree& tree, const std::vector<Phase1Level>& levels,
                    NodeId self_leaf, QueryStats* stats,
                    std::vector<FastEntry>& stack, ExactLeaves* exact) {
  const uint32_t leaf_level = static_cast<uint32_t>(levels.size()) - 1;
  stack.clear();
  stack.push_back({ALTree::kRootId, 0, false});
  uint64_t checks = 0;
  while (!stack.empty()) {
    const FastEntry s = stack.back();
    stack.pop_back();
    const Phase1Level& level = levels[s.level];
    for (const ALTree::ChildRef& child : tree.Children(s.n)) {
      const NodeId p = child.id;
      // A subtree whose only instance is the candidate itself is empty.
      const uint64_t descendants = tree.Descendants(p);
      if (descendants <= 1 &&
          (descendants == 0 ||
           (self_leaf != ALTree::kInvalidNode &&
            OnSelfPath(tree, p, s.level, leaf_level, self_leaf)))) {
        continue;
      }
      bool closer = s.found_closer;
      if (level.col != nullptr) {
        const double lhs = level.col[child.value];
        ++checks;
        if (lhs > level.rhs) continue;
        closer = closer || lhs < level.rhs;
      }
      if (s.level == leaf_level) {
        // With `exact`, an entry's exact values decide whatever the path's
        // flag says (bucket bounds cannot prove strictness); without it the
        // flag is the verdict.
        const bool pruned =
            kExact ? FindPrunerEntry(tree, p, exact, &checks) : closer;
        if (pruned) {
          stats->checks += checks;
          return p;
        }
      } else {
        stack.push_back({p, s.level + 1, closer});
      }
    }
  }
  stats->checks += checks;
  return ALTree::kInvalidNode;
}

}  // namespace

NodeId FindPrunerFast(const ALTree& tree,
                      const std::vector<Phase1Level>& levels, NodeId self_leaf,
                      QueryStats* stats, std::vector<FastEntry>& stack,
                      ExactLeaves* exact) {
  if (exact != nullptr) {
    return SearchPruner<true>(tree, levels, self_leaf, stats, stack, exact);
  }
  return SearchPruner<false>(tree, levels, self_leaf, stats, stack, nullptr);
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
                        exact());
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

void PruneTree(ALTree& tree, const TreeQueryContext& ctx,
               const ValueId* e_values, const double* e_numerics,
               RowId spare_id, QueryStats* stats,
               std::vector<TraversalEntry>& stack) {
  const size_t m = ctx.schema->num_attributes();
  const bool has_numerics = tree.has_numerics();

  stack.clear();
  stack.push_back({ALTree::kRootId, false});
  while (!stack.empty()) {
    const TraversalEntry s = stack.back();
    stack.pop_back();
    if (s.n != ALTree::kRootId && tree.IsLeaf(s.n)) {
      if (!has_numerics) {
        if (!s.found_closer) continue;
        EvictLeaf(tree, s.n, spare_id);
        continue;
      }
      // Numeric refinement: exact per-entry checks on numeric attributes.
      for (size_t i = tree.LeafRows(s.n).size(); i-- > 0;) {
        if (tree.LeafRows(s.n)[i] == spare_id) continue;
        const double* c_num = tree.LeafNumerics(s.n, i);
        bool ok = true;
        bool strict = s.found_closer;
        for (AttrId a = 0; a < m && ok; ++a) {
          if (!ctx.attr_selected[a] || !ctx.buckets[a].has_value()) continue;
          const double lhs = ctx.space->NumDist(a, e_numerics[a], c_num[a]);
          const double r =
              ctx.space->NumDist(a, ctx.query.numerics[a], c_num[a]);
          ++stats->checks;
          if (lhs > r) ok = false;
          if (lhs < r) strict = true;
        }
        if (ok && strict) tree.RemoveLeafEntry(s.n, i);
      }
      continue;
    }
    for (const ALTree::ChildRef& child : tree.Children(s.n)) {
      const NodeId p = child.id;
      if (tree.Descendants(p) == 0) continue;
      const AttrId a = ctx.attr_order[tree.Level(p)];
      if (!ctx.attr_selected[a]) {
        stack.push_back({p, s.found_closer});
        continue;
      }
      if (ctx.buckets[a].has_value()) {
        // Numeric level: node value is a bucket of candidate values. Keep
        // descending while *some* candidate in the bucket could be pruned;
        // record strictness only when *every* candidate certainly is.
        const Interval ui = ctx.BucketOf(a, child.value);
        const Interval e_pt{e_numerics[a], e_numerics[a]};
        const Interval q_pt{ctx.query.numerics[a], ctx.query.numerics[a]};
        const auto& nd = ctx.space->numeric(a);
        ++stats->checks;
        if (nd.MinDist(e_pt, ui) <= nd.MaxDist(q_pt, ui)) {
          const bool certain_strict =
              nd.MaxDist(e_pt, ui) < nd.MinDist(q_pt, ui);
          stack.push_back({p, s.found_closer || certain_strict});
        }
      } else {
        const ValueId u = child.value;
        const double lhs = ctx.space->CatDist(a, e_values[a], u);
        const double rhs = ctx.space->CatDist(a, ctx.query.values[a], u);
        ++stats->checks;
        if (lhs <= rhs) {
          const bool closer = s.found_closer || lhs < rhs;
          // An all-categorical leaf without strict evidence can never be
          // evicted — skip the stack round-trip. (With numeric attributes
          // the leaf's exact values may still supply the strictness, so it
          // must be visited.)
          if (!closer && !has_numerics && tree.IsLeaf(p)) continue;
          stack.push_back({p, closer});
        }
      }
    }
  }
}

void PruneTreeFast(ALTree& tree, const std::vector<Phase2Level>& levels,
                   RowId spare_id, QueryStats* stats,
                   std::vector<FastEntry>& stack) {
  if (tree.empty()) return;
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
      const ValueId u = child.value;
      const double lhs = level.erow[u];
      const double rhs = level.qrow[u];
      ++checks;
      if (lhs <= rhs) {
        const bool closer = s.found_closer || lhs < rhs;
        if (s.level == leaf_level) {
          if (closer) EvictLeaf(tree, p, spare_id);
        } else {
          stack.push_back({p, s.level + 1, closer});
        }
      }
    }
  }
  stats->checks += checks;
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
