#ifndef NMRS_ALTREE_AL_TREE_H_
#define NMRS_ALTREE_AL_TREE_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "data/object.h"
#include "data/schema.h"

namespace nmrs {

/// In-memory variant of the AL-Tree (Attribute-Level tree, Deshpande et al.,
/// EDBT 2008) used by the TRS algorithm: the prefix tree of a batch of
/// objects ordered by a fixed attribute ordering. Level k of the tree fixes
/// the value of attribute `attr_order[k]`; a leaf therefore pins every
/// attribute and stores the ids (and exact numeric values, §6) of all
/// duplicate objects that take that combination.
///
/// The tree supports the operations TRS needs:
///  * batch build (Insert), with per-node descendant counts,
///  * temporary removal of one object so it cannot prune itself
///    (TempRemove / TempRestore),
///  * destructive removal of a whole leaf or single leaf entry (Prune),
///  * child ordering by ascending descendant count (PrepareForSearch), so a
///    DFS that pushes children in list order onto a stack pops the most
///    populous — most promising — subtree first,
///  * memory footprint estimation, used for batch sizing: the tree packs
///    more objects into the same memory budget than a flat page image,
///    which is one source of TRS's IO advantage (paper §5.3).
///
/// Node fields are stored as parallel arrays (struct-of-arrays) because the
/// IsPrunable / Prune traversals are the hottest loops of TRS: they touch
/// value/level/descendants of many nodes but the row payload of few.
///
/// Node 0 is the root (Level() == kRootLevel, no value).
class ALTree {
 public:
  using NodeId = uint32_t;
  static constexpr NodeId kRootId = 0;
  static constexpr uint32_t kRootLevel = ~uint32_t{0};
  static constexpr NodeId kInvalidNode = ~NodeId{0};

  /// `attr_order[k]` is the physical attribute fixed at tree level k.
  ALTree(const Schema& schema, std::vector<AttrId> attr_order);

  const Schema& schema() const { return schema_; }
  const std::vector<AttrId>& attr_order() const { return attr_order_; }
  size_t num_levels() const { return attr_order_.size(); }

  /// Removes all objects and nodes (except the root).
  void Clear();

  /// Inserts one object. `values` indexed by physical AttrId; `numerics`
  /// may be null when the schema has no numeric attributes.
  void Insert(RowId id, const ValueId* values, const double* numerics);

  /// Number of active objects (counting duplicates).
  uint64_t num_objects() const { return descendants_[kRootId]; }
  size_t num_nodes() const { return value_.size(); }
  bool empty() const { return num_objects() == 0; }

  /// Estimated heap footprint in bytes of this C++ implementation.
  size_t MemoryBytes() const;

  /// Logical footprint used for TRS batch sizing, modeling the paper's
  /// compact AL-Tree encoding: 8 bytes per node (packed value + count /
  /// child offset) plus the exact numeric payload at leaves. The paper's
  /// tree stores objects as shared-prefix paths with duplicate counts — not
  /// row ids — so prefix sharing lets a batch hold more objects than a flat
  /// page image of the same memory (§5.3, IO costs discussion).
  size_t LogicalMemoryBytes() const {
    return num_nodes() * 8 +
           (numeric_stride_ > 0
                ? static_cast<size_t>(descendants_[kRootId]) *
                      numeric_stride_ * sizeof(double)
                : 0);
  }

  /// Sorts every child list by ascending descendant count (paper Alg. 4
  /// line 8). Call once after the batch is loaded, before IsPrunable scans.
  void PrepareForSearch();

  // --- Structure accessors (for the traversals in core/) ---

  /// A child edge: the child's node id together with its value, co-located
  /// so traversals scanning a child list touch one contiguous array.
  struct ChildRef {
    NodeId id;
    ValueId value;
  };

  bool IsLeaf(NodeId n) const { return level_[n] + 1 == num_levels(); }
  ValueId Value(NodeId n) const { return value_[n]; }
  /// Level of the node = index into attr_order() of the attribute its value
  /// belongs to; kRootLevel for the root.
  uint32_t Level(NodeId n) const { return level_[n]; }
  uint64_t Descendants(NodeId n) const { return descendants_[n]; }
  const std::vector<ChildRef>& Children(NodeId n) const {
    return children_[n];
  }
  NodeId Parent(NodeId n) const { return parent_[n]; }

  /// Active duplicate count at a leaf (excludes temporarily removed
  /// instances); equal to Descendants(leaf).
  uint32_t LeafCount(NodeId leaf) const {
    NMRS_DCHECK(IsLeaf(leaf));
    return static_cast<uint32_t>(descendants_[leaf]);
  }

  /// Row ids stored at a leaf (temporarily removed instances included —
  /// TempRemove hides an instance from counts, not from the id list).
  const std::vector<RowId>& LeafRows(NodeId leaf) const {
    NMRS_DCHECK(IsLeaf(leaf));
    return row_ids_[leaf];
  }

  /// Exact numeric values of leaf entry `entry` (stride = num attributes);
  /// only valid when the schema has numeric attributes.
  const double* LeafNumerics(NodeId leaf, size_t entry) const {
    NMRS_DCHECK(IsLeaf(leaf) && numeric_stride_ > 0);
    return numerics_[leaf].data() + entry * numeric_stride_;
  }

  bool has_numerics() const { return numeric_stride_ > 0; }

  // --- Mutations ---

  /// Temporarily removes one instance of the object with the given values
  /// (decrements descendant counts along its path) so that IsPrunable(c)
  /// does not let c prune itself. Returns the leaf. The object's identity
  /// does not matter — any one duplicate instance is hidden.
  NodeId TempRemove(const ValueId* values);

  /// TempRemove for a leaf already at hand (skips the root-to-leaf walk).
  void TempRemoveLeaf(NodeId leaf);

  /// Undoes a TempRemove on `leaf`.
  void TempRestore(NodeId leaf);

  /// Destructively removes the whole leaf (all duplicates); descendant
  /// counts along the path are updated. The node itself stays allocated
  /// with zero descendants and is skipped by traversals.
  void RemoveLeaf(NodeId leaf);

  /// Destructively removes a single entry of a leaf (numeric refinement).
  void RemoveLeafEntry(NodeId leaf, size_t entry);

  /// Invokes fn(leaf NodeId) for every leaf with at least one active object.
  template <typename Fn>
  void ForEachActiveLeaf(Fn&& fn) const {
    std::vector<NodeId> stack = {kRootId};
    while (!stack.empty()) {
      NodeId n = stack.back();
      stack.pop_back();
      if (descendants_[n] == 0) continue;
      if (n != kRootId && IsLeaf(n)) {
        fn(n);
        continue;
      }
      for (const ChildRef& c : children_[n]) stack.push_back(c.id);
    }
  }

  /// Leaf whose path matches `values` (or kInvalidNode).
  NodeId FindLeaf(const ValueId* values) const;

 private:
  NodeId FindOrAddChild(NodeId parent, ValueId value, uint32_t level);
  NodeId FindChild(NodeId parent, ValueId value) const;
  void AddToPathCounts(NodeId leaf, int64_t delta);

  Schema schema_;
  std::vector<AttrId> attr_order_;
  size_t numeric_stride_;  // num attributes if schema has numerics, else 0

  // Parallel per-node arrays (hot first).
  std::vector<ValueId> value_;
  std::vector<uint32_t> level_;
  std::vector<uint64_t> descendants_;
  std::vector<NodeId> parent_;
  std::vector<uint32_t> temp_removed_;  // leaf only
  std::vector<std::vector<ChildRef>> children_;
  std::vector<std::vector<RowId>> row_ids_;      // leaf only
  std::vector<std::vector<double>> numerics_;    // leaf only
};

}  // namespace nmrs

#endif  // NMRS_ALTREE_AL_TREE_H_
