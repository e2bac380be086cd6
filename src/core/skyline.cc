#include "core/skyline.h"

#include <algorithm>

#include "altree/al_tree.h"
#include "core/dominance.h"
#include "core/tree_traversal.h"
#include "order/attribute_order.h"

namespace nmrs {

bool DominatesWrt(const SimilaritySpace& space, const Schema& schema,
                  const Object& ref, const Object& a, const Object& b,
                  const std::vector<AttrId>& selected) {
  const std::vector<AttrId> attrs = ResolveSelectedAttrs(schema, selected);
  bool strict = false;
  for (AttrId i : attrs) {
    double da, db;
    if (schema.attribute(i).is_numeric) {
      da = space.NumDist(i, a.numerics[i], ref.numerics[i]);
      db = space.NumDist(i, b.numerics[i], ref.numerics[i]);
    } else {
      da = space.CatDist(i, a.values[i], ref.values[i]);
      db = space.CatDist(i, b.values[i], ref.values[i]);
    }
    if (da > db) return false;
    if (da < db) strict = true;
  }
  return strict;
}

std::vector<RowId> DynamicSkylineBNL(const Dataset& data,
                                     const SimilaritySpace& space,
                                     const Object& ref,
                                     const std::vector<AttrId>& selected) {
  const Schema& schema = data.schema();
  std::vector<RowId> window;  // current non-dominated set
  for (RowId r = 0; r < data.num_rows(); ++r) {
    const Object candidate = data.GetObject(r);
    bool dominated = false;
    // Compare against the window; drop window members the candidate
    // dominates.
    std::vector<RowId> next_window;
    next_window.reserve(window.size() + 1);
    for (RowId w : window) {
      const Object other = data.GetObject(w);
      if (!dominated && DominatesWrt(space, schema, ref, other, candidate,
                                     selected)) {
        dominated = true;
      }
      if (!DominatesWrt(space, schema, ref, candidate, other, selected)) {
        next_window.push_back(w);
      }
    }
    if (dominated) continue;  // window unchanged (nothing it dominates kept out)
    window = std::move(next_window);
    window.push_back(r);
  }
  std::sort(window.begin(), window.end());
  return window;
}

Status VerifyReverseSkyline(const Dataset& data, const SimilaritySpace& space,
                            const Object& query,
                            const std::vector<RowId>& rows,
                            const std::vector<AttrId>& selected) {
  PruneContext ctx(space, data.schema(), query, selected);
  std::vector<bool> claimed(data.num_rows(), false);
  for (RowId r : rows) {
    if (r >= data.num_rows()) {
      return Status::FailedPrecondition("claimed row " + std::to_string(r) +
                                        " is not in the dataset");
    }
    if (claimed[r]) {
      return Status::FailedPrecondition("row " + std::to_string(r) +
                                        " claimed twice");
    }
    claimed[r] = true;
  }
  uint64_t checks = 0;
  for (RowId x = 0; x < data.num_rows(); ++x) {
    ctx.SetCandidate(data.RowValues(x), data.RowNumerics(x));
    bool pruned = false;
    for (RowId y = 0; y < data.num_rows() && !pruned; ++y) {
      if (y == x) continue;
      pruned = ctx.Prunes(data.RowValues(y), data.RowNumerics(y), &checks);
    }
    if (pruned && claimed[x]) {
      return Status::FailedPrecondition(
          "row " + std::to_string(x) +
          " is claimed but has a pruner (not in RS)");
    }
    if (!pruned && !claimed[x]) {
      return Status::FailedPrecondition(
          "row " + std::to_string(x) +
          " belongs to RS but is missing from the claim");
    }
  }
  return Status::OK();
}

std::vector<RowId> ReverseSkylineOracle(const Dataset& data,
                                        const SimilaritySpace& space,
                                        const Object& query,
                                        const std::vector<AttrId>& selected) {
  PruneContext ctx(space, data.schema(), query, selected);
  std::vector<RowId> result;
  uint64_t checks = 0;
  for (RowId x = 0; x < data.num_rows(); ++x) {
    ctx.SetCandidate(data.RowValues(x), data.RowNumerics(x));
    bool pruned = false;
    for (RowId y = 0; y < data.num_rows(); ++y) {
      if (y == x) continue;
      if (ctx.Prunes(data.RowValues(y), data.RowNumerics(y), &checks)) {
        pruned = true;
        break;
      }
    }
    if (!pruned) result.push_back(x);
  }
  return result;
}

std::vector<RowId> TreeDynamicSkyline(const Dataset& data,
                                      const SimilaritySpace& space,
                                      const Object& ref,
                                      const std::vector<AttrId>& selected,
                                      uint64_t* checks_out) {
  const Schema& schema = data.schema();
  const size_t m = schema.num_attributes();
  NMRS_CHECK_EQ(schema.NumNumeric(), 0u)
      << "TreeDynamicSkyline supports categorical attributes only";
  std::vector<RowId> result;
  if (data.num_rows() == 0 || m == 0) {
    if (checks_out != nullptr) *checks_out = 0;
    return result;
  }

  const auto attr_order = AscendingCardinalityOrder(schema);
  ALTree tree(schema, attr_order);
  for (RowId r = 0; r < data.num_rows(); ++r) {
    tree.Insert(r, data.RowValues(r), nullptr);
  }
  tree.PrepareForSearch();

  // Per tree level: the distances of every domain value to the reference
  // (contiguous matrix column), or nullptr when the attribute is outside
  // the selected subset. Candidate c is dominated iff the tree (minus one
  // instance of c) holds an object Y with col[y_l] <= col[c_l] on every
  // selected level and strictly smaller on one — TRS's pruner search with
  // the roles of query and candidate swapped.
  std::vector<internal_tree::Phase1Level> levels(m, {nullptr, 0.0});
  {
    std::vector<bool> is_selected(m, false);
    for (AttrId a : ResolveSelectedAttrs(schema, selected)) {
      is_selected[a] = true;
    }
    for (size_t l = 0; l < m; ++l) {
      const AttrId a = attr_order[l];
      if (is_selected[a]) {
        levels[l].col = space.matrix(a).ColumnTo(ref.values[a]);
      }
    }
  }

  std::vector<internal_tree::FastEntry> stack;
  stack.reserve(256);
  internal_tree::PrunerMemo memo;
  QueryStats stats;
  tree.ForEachActiveLeaf([&](ALTree::NodeId leaf) {
    // Per-level thresholds: c's own distances to the reference.
    for (ALTree::NodeId cur = leaf; cur != ALTree::kRootId;
         cur = tree.Parent(cur)) {
      internal_tree::Phase1Level& level = levels[tree.Level(cur)];
      if (level.col != nullptr) level.rhs = level.col[tree.Value(cur)];
    }
    if (internal_tree::FindPrunerFast(tree, levels, leaf, &stats, stack,
                                      nullptr, &memo) == ALTree::kInvalidNode) {
      for (RowId r : tree.LeafRows(leaf)) result.push_back(r);
    }
  });
  std::sort(result.begin(), result.end());
  if (checks_out != nullptr) *checks_out = stats.checks;
  return result;
}

std::vector<RowId> ReverseSkylineViaSkylineMembership(
    const Dataset& data, const SimilaritySpace& space, const Object& query,
    const std::vector<AttrId>& selected) {
  const Schema& schema = data.schema();
  std::vector<RowId> result;
  for (RowId x = 0; x < data.num_rows(); ++x) {
    const Object ref = data.GetObject(x);
    // Q is in the skyline of X over D ∪ {Q} iff nothing in D ∪ {Q}
    // dominates Q w.r.t. X. (Q never dominates itself: no strict attr.)
    // The dynamic skyline of X is taken over (D \ {X}) ∪ {Q}, matching
    // Dellis & Seeger and the paper's Naive (Alg. 1, "∀Y ∈ D, Y ≠ X"):
    // X is not its own pruner, but value-duplicates of X under other ids
    // are. Q itself never dominates Q (no strict attribute).
    bool q_dominated = false;
    for (RowId z = 0; z < data.num_rows() && !q_dominated; ++z) {
      if (z == x) continue;
      const Object z_obj = data.GetObject(z);
      if (DominatesWrt(space, schema, ref, z_obj, query, selected)) {
        q_dominated = true;
      }
    }
    if (!q_dominated) result.push_back(x);
  }
  return result;
}

}  // namespace nmrs
