#ifndef NMRS_ALTREE_AL_TREE_H_
#define NMRS_ALTREE_AL_TREE_H_

#include <cstdint>
#include <span>
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
///  * destructive removal of a whole leaf or single leaf entry (Prune),
///  * child ordering by ascending descendant count (PrepareForSearch), so a
///    DFS that pushes children in list order onto a stack pops the most
///    populous — most promising — subtree first,
///  * memory footprint estimation, used for batch sizing: the tree packs
///    more objects into the same memory budget than a flat page image,
///    which is one source of TRS's IO advantage (paper §5.3).
///
/// Node fields are stored as parallel arrays (struct-of-arrays) because the
/// pruner search (paper Alg. 4) and Prune (Alg. 5) are the hottest loops of
/// TRS: they touch value/level/descendants of many nodes but the row
/// payload of few. The search only reads the tree; it keeps a candidate
/// from pruning itself by counting the candidate's own leaf one instance
/// short (internal_tree::FindPrunerFast), so searches can share one tree.
///
/// Insert is a one-pass bulk load. A path cursor keeps the node at every
/// level of the last inserted object; the next object reuses that path up
/// to the first level whose value differs and searches child lists only
/// from there. Batches arrive in stored (sorted) order, so most objects
/// share their whole path with the one before. The cursor only skips
/// searches whose answer it already holds: node ids, child order and
/// descendant counts are the same for any insertion order.
///
/// Leaf payload lives in flat arenas instead of one heap vector per leaf:
/// every leaf owns a contiguous range (32-bit offset, count, capacity) of
/// one row-id array, and of one numeric array with `num attributes` doubles
/// per entry when the schema has numerics. Entries stay in insertion order
/// and LeafRows() is a span over the range. A leaf whose range ends the
/// arena grows in place — the sorted-input case, which wastes nothing. Any
/// other full leaf (unsorted input) moves to a power-of-two range above its
/// count, taken from a per-size-class free list of ranges earlier moves gave
/// up, or else from the arena's end; PrepareForSearch() then packs the
/// arenas, so a built index keeps no unused ranges. Removals shrink a
/// leaf's count in place and never move other leaves.
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

  /// Removes all objects and nodes (except the root) and resets the path
  /// cursor. Array capacity is kept for the next batch.
  void Clear();

  /// Inserts one object. `values` indexed by physical AttrId; `numerics`
  /// may be null when the schema has no numeric attributes. Runs of objects
  /// that share a path prefix with their predecessor are cheapest (see the
  /// class comment); any order builds the same tree.
  void Insert(RowId id, const ValueId* values, const double* numerics);

  /// Number of active objects (counting duplicates).
  uint64_t num_objects() const { return descendants_[kRootId]; }
  size_t num_nodes() const { return value_.size(); }
  bool empty() const { return num_objects() == 0; }

  /// Heap footprint in bytes of this C++ implementation: the per-node
  /// fields of num_nodes() nodes, plus the child lists, the leaf arenas
  /// (unused ranges and reserved slots included) and the free lists at
  /// their allocated capacity.
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
  /// line 8). Call once after the batch is loaded, before pruner searches.
  /// When unsorted input moved leaf ranges, it also compacts the arenas so
  /// the built tree keeps no unused ranges (entry order is unchanged).
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

  /// Active duplicate count at a leaf (entries not yet removed); equal to
  /// Descendants(leaf) and to LeafRows(leaf).size().
  uint32_t LeafCount(NodeId leaf) const {
    NMRS_DCHECK(IsLeaf(leaf));
    return static_cast<uint32_t>(descendants_[leaf]);
  }

  /// Row ids stored at a leaf, in insertion order. The span stays valid
  /// until the next Insert, PrepareForSearch or Clear; removals only
  /// shorten it from the caller's point of view.
  std::span<const RowId> LeafRows(NodeId leaf) const {
    NMRS_DCHECK(IsLeaf(leaf));
    const LeafRange& r = leaf_range_[leaf];
    return {row_arena_.data() + r.begin, r.count};
  }

  /// Exact numeric values of leaf entry `entry` (stride = num attributes);
  /// only valid when the schema has numeric attributes.
  const double* LeafNumerics(NodeId leaf, size_t entry) const {
    NMRS_DCHECK(IsLeaf(leaf) && numeric_stride_ > 0);
    NMRS_DCHECK(entry < leaf_range_[leaf].count);
    return numeric_arena_.data() +
           (leaf_range_[leaf].begin + entry) * numeric_stride_;
  }

  bool has_numerics() const { return numeric_stride_ > 0; }

  // --- Mutations ---

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
  // A leaf's slice of the arenas: entries [begin, begin + count) are live,
  // [begin + count, begin + capacity) are reserved for its next inserts.
  struct LeafRange {
    uint32_t begin;
    uint32_t count;
    uint32_t capacity;
  };

  NodeId FindOrAddChild(NodeId parent, ValueId value, uint32_t level);
  NodeId FindChild(NodeId parent, ValueId value) const;
  void AddToPathCounts(NodeId leaf, int64_t delta);
  // Appends one entry to `leaf`'s arena range. A full range that ends the
  // arena grows in place; any other full range moves (MoveLeafRange).
  void AppendLeafEntry(NodeId leaf, RowId id, const double* numerics);
  // Moves a full range to a power-of-two range above its count, reusing a
  // freed range of that size class when there is one, and frees the old.
  void MoveLeafRange(LeafRange& r);
  // Rewrites the arenas with every leaf's entries packed in node order and
  // no reserved slots, dropping the free lists.
  void CompactLeafArenas();

  Schema schema_;
  std::vector<AttrId> attr_order_;
  size_t numeric_stride_;  // num attributes if schema has numerics, else 0

  // Parallel per-node arrays (hot first).
  std::vector<ValueId> value_;
  std::vector<uint32_t> level_;
  std::vector<uint64_t> descendants_;
  std::vector<NodeId> parent_;
  std::vector<std::vector<ChildRef>> children_;
  std::vector<LeafRange> leaf_range_;  // leaf only

  // Leaf payload arenas; numeric_arena_ holds numeric_stride_ doubles per
  // row_arena_ slot.
  std::vector<RowId> row_arena_;
  std::vector<double> numeric_arena_;
  // free_ranges_[k]: begins of ranges given up by moved leaves whose
  // capacity is at least 2^k, reused by later moves of that class.
  std::vector<std::vector<uint32_t>> free_ranges_;

  // Path cursor: cursor_[k] is the level-k node of the last inserted
  // object; empty after Clear().
  std::vector<NodeId> cursor_;
};

}  // namespace nmrs

#endif  // NMRS_ALTREE_AL_TREE_H_
