#ifndef NMRS_CORE_TREE_TRAVERSAL_H_
#define NMRS_CORE_TREE_TRAVERSAL_H_

// Internal shared machinery of the AL-Tree-based reverse-skyline
// algorithms (TRS and the bichromatic tree variant). Not part of the
// public API — include core/trs.h / core/bichromatic.h instead.

#include <algorithm>
#include <array>
#include <optional>
#include <utility>
#include <vector>

#include "altree/al_tree.h"
#include "common/sync.h"
#include "core/dominance.h"
#include "core/query.h"
#include "data/bucketizer.h"
#include "data/stored_dataset.h"
#include "storage/paged_reader.h"
#include "sim/similarity_space.h"

namespace nmrs {
namespace internal_tree {

/// Immutable per-query state shared by the tree traversals.
struct TreeQueryContext {
  const SimilaritySpace* space;
  Object query;
  std::vector<AttrId> attr_order;      // tree level -> physical attr
  std::vector<bool> attr_selected;     // by physical attr
  std::vector<std::optional<Bucketizer>> buckets;  // by physical attr

  Interval BucketOf(AttrId a, ValueId bucket) const {
    return buckets[a]->BucketInterval(bucket);
  }
};

TreeQueryContext MakeTreeContext(const SimilaritySpace& space,
                                 const Schema& schema, const Object& query,
                                 const RSOptions& opts);

/// Reconstructs the full value vector of a leaf by walking parents.
void LeafValues(const ALTree& tree, ALTree::NodeId leaf,
                const std::vector<AttrId>& attr_order,
                std::vector<ValueId>* values);

/// Stack entry of the traversals (carries the level).
struct FastEntry {
  ALTree::NodeId n;
  uint32_t level;  // level of this node's children
  bool found_closer;
};

/// Per-level candidate context for FindPrunerFast: col[v] = d_l(v, c_l),
/// rhs = d_l(q_l, c_l). On a numeric level, col[b] and rhs bound the
/// distances over bucket b's values instead (IndexLevels, TRS phase 1).
/// col == nullptr marks a level outside the selected attributes (§5.6):
/// every child passes it without a check and without strictness.
struct Phase1Level {
  const double* col;
  double rhs;
};

/// The leaf step of FindPrunerFast over a tree with numeric attributes,
/// whose levels only bound numeric distances by bucket (paper §6): each
/// entry of a leaf the levels admit is tested exactly with ctx->Prunes on
/// the leaf's values and the entry's numerics, except the entry whose row
/// id is self_id. The search then returns the first leaf holding a pruner
/// and sets `entry` to that pruner's entry index.
struct ExactLeaves {
  const PruneContext* ctx = nullptr;  // bound to the candidate
  RowId self_id = kInvalidRowId;      // kInvalidRowId: not a row of the tree
  std::vector<ValueId> values;        // scratch: one per attribute
  uint32_t entry = 0;                 // out
};

/// The pruner leaves that the last searches of a chain over one tree
/// returned, most recent first; kInvalidNode marks an empty slot. Callers
/// visit candidates in leaf order, so neighbouring candidates share prefixes
/// and usually share a pruner: FindPrunerFast tests these leaves before its
/// DFS, notes the leaf it returns, and empties the memo when it finds no
/// pruner. A memo never outlives its tree.
struct PrunerMemo {
  /// A caller that splits the n leaves of a tree into chunks resets the
  /// memo every BlockSize(n) leaves and cuts chunks only at those
  /// boundaries (BlockChunkBegin), so its counters do not depend on the
  /// chunking. A block holds at least kMinBlock leaves, so the memo warms
  /// up, and a tree has at most kBlocks blocks, so it seldom restarts; a
  /// caller can use up to kBlocks chunks.
  static constexpr size_t kMinBlock = 64;
  static constexpr size_t kBlocks = 16;
  static size_t BlockSize(size_t n) {
    return std::max(kMinBlock, (n + kBlocks - 1) / kBlocks);
  }

  std::array<ALTree::NodeId, 2> leaves = {ALTree::kInvalidNode,
                                          ALTree::kInvalidNode};

  void Reset() { leaves.fill(ALTree::kInvalidNode); }
  /// Moves `leaf` to the front, dropping the last leaf if it was not held.
  void Note(ALTree::NodeId leaf) {
    if (leaves[0] == leaf) return;
    leaves[1] = leaves[0];
    leaves[0] = leaf;
  }
};

/// Splits [0, n) into `chunks` runs of whole PrunerMemo blocks (the last
/// block may be short); chunk c is [BlockChunkBegin(n, chunks, c),
/// BlockChunkBegin(n, chunks, c + 1)). Chunks past NumMemoBlocks(n) are
/// empty.
inline size_t NumMemoBlocks(size_t n) {
  const size_t block = PrunerMemo::BlockSize(n);
  return (n + block - 1) / block;
}
inline size_t BlockChunkBegin(size_t n, size_t chunks, size_t c) {
  return std::min(
      n, ChunkBegin(NumMemoBlocks(n), chunks, c) * PrunerMemo::BlockSize(n));
}

/// The Phase1Level array of a search over a read-only index under a
/// table-backed PruneContext: each selected categorical level reads the
/// context's (overlay-aware) candidate column against its query distance;
/// each selected numeric level reads a per-bucket column of lower bounds
/// MinDist(bucket interval, c_l) against the exact query distance.
/// Unselected levels carry col == nullptr. The levels point into this
/// object, which is therefore not copyable.
class IndexLevels {
 public:
  /// `selected` is the resolved selection the contexts are built with.
  IndexLevels(const ALTree& index, const std::vector<AttrId>& selected);
  IndexLevels(const IndexLevels&) = delete;
  IndexLevels& operator=(const IndexLevels&) = delete;

  /// Definition 1 over the index: binds `ctx`'s current candidate and
  /// runs FindPrunerFast with exact() as its leaf step, so lower-bound
  /// numeric levels never decide a verdict on their own, and with memo().
  ALTree::NodeId FindPruner(const PruneContext& ctx, RowId self_id,
                            ALTree::NodeId self_leaf, QueryStats* stats,
                            std::vector<FastEntry>& stack);

  /// Points every selected level at `ctx`'s current candidate, whose row
  /// id is `self_id` (kInvalidRowId for a candidate that is not a row of
  /// the index). A search of the index over these levels must pass
  /// exact(); FindPruner does.
  const std::vector<Phase1Level>& Bind(const PruneContext& ctx,
                                       RowId self_id);

  /// The exact leaf step of the bound candidate: null for an
  /// all-categorical index, whose levels are exact.
  ExactLeaves* exact() { return has_numerics_ ? &exact_ : nullptr; }

  /// The memo of FindPruner's searches over the index.
  PrunerMemo& memo() { return memo_; }

 private:
  static constexpr size_t kUnselected = ~size_t{0};
  const ALTree& index_;
  std::vector<size_t> selected_pos_;  // per level: position in `selected`
  // Per level: bucket bounds and lower-bound column of a selected numeric
  // level (empty otherwise).
  std::vector<std::optional<Bucketizer>> buckets_;
  std::vector<std::vector<double>> bounds_;
  std::vector<Phase1Level> levels_;
  bool has_numerics_;
  ExactLeaves exact_;
  PrunerMemo memo_;
};

/// Paper Alg. 4, the pruner test of candidate c against the tree's objects,
/// over per-level columns: returns the leaf of the first pruner the search
/// meets (its values via LeafValues), or ALTree::kInvalidNode when nothing
/// prunes the candidate. `self_leaf` is the candidate's own leaf when the
/// candidate is a row of `tree`: the search then counts that leaf and its
/// ancestors one instance short, so the candidate cannot prune itself
/// while its duplicates still can (Alg. 3 line 5, "M \ c"). The tree is
/// only read, so concurrent searches may share it. Pass kInvalidNode when
/// the candidate is not in the tree.
///
/// Before the DFS the search probes up to three leaves, each with one
/// counted check per selected level walked from the leaf to the root, plus
/// `exact`'s entry step on an admitted leaf:
///  1. the leaves of `memo`, when given, other than `self_leaf` and leaves
///     without instances; a memo leaf that prunes moves to the memo's front;
///  2. `self_leaf`, when it holds a duplicate of the candidate, reading
///     col[own value] (so a nonzero diagonal d(x, x) counts as it is).
/// A pruner found there is returned. Otherwise the DFS follows, skipping at
/// its leaf level the leaves the probes decided, whose verdict on the same
/// path cannot differ. Whichever step finds the pruner notes its leaf in
/// `memo`; a search without a pruner empties the memo. The verdict is the
/// DFS's either way; which pruner leaf comes back, and the checks, may
/// differ from a tree without the candidate or a search without the memo
/// (paper Alg. 4 has neither the memo nor the own-path probe).
///
/// Without `exact` the verdict comes from the path: a leaf the levels admit
/// on a path with a strict level. That is Definition 1 on exact levels and
/// a conservative test on TRS phase 1's bucket bounds. With `exact`
/// (which IndexLevels::FindPruner passes) every entry of an admitted leaf
/// is refined exactly, so a tree with numerics also gets Definition 1.
ALTree::NodeId FindPrunerFast(const ALTree& tree,
                              const std::vector<Phase1Level>& levels,
                              ALTree::NodeId self_leaf, QueryStats* stats,
                              std::vector<FastEntry>& stack,
                              ExactLeaves* exact = nullptr,
                              PrunerMemo* memo = nullptr);

/// A selected numeric level's bucket columns for streamed object e, whose
/// value is `e` (paper §6): bucket B must pass when
/// MinDist(e, B) <= MaxDist(q, B), strictly when MaxDist(e, B) <
/// MinDist(q, B). So rhs[B] = MinDist(q, B), filled once per query, and
/// lhs[B] = min(MaxDist(e, B), rhs[B]) for a passing bucket and +inf for
/// another, filled on B's first touch per streamed object
/// (filled[B] == epoch).
struct BucketBounds {
  const TreeQueryContext* ctx = nullptr;
  AttrId attr = 0;
  double e = 0.0;
  uint64_t epoch = 0;
  std::vector<double> q_max, rhs, lhs;
  std::vector<uint64_t> filled;

  void Fill(ValueId bucket);
};

/// Per-level streamed-object context of StreamLevels::PruneTree: a child
/// of value u passes when lhs[u] <= rhs[u] and makes its path strict when
/// lhs[u] < rhs[u]; on a numeric level, bounds->Fill(u) computes lhs[u]
/// first. lhs == nullptr marks a level outside the selected attributes:
/// every child passes it without a check and without strictness.
struct Phase2Level {
  const double* lhs;
  const double* rhs;
  BucketBounds* bounds;
};

/// Paper Alg. 5 over per-level columns, for one streamed object e at a
/// time: a selected categorical level reads the matrix rows d(e_a, .)
/// against d(q_a, .), a selected numeric level its BucketBounds. The
/// levels point into this object, which is therefore not copyable.
class StreamLevels {
 public:
  explicit StreamLevels(const TreeQueryContext& ctx);
  StreamLevels(const StreamLevels&) = delete;
  StreamLevels& operator=(const StreamLevels&) = delete;

  /// Removes from `tree` every object prunable by streamed object e (values
  /// and numerics by physical attribute). Entries whose row id equals
  /// `spare_id` are never evicted (pass kInvalidRowId for bichromatic
  /// pruning, where the streamed object can never be a candidate). With
  /// numeric levels, whose bucket bounds cannot prove strictness, each
  /// entry of an admitted leaf is decided on its exact values, testing the
  /// numeric attributes in physical order until one fails.
  void PruneTree(ALTree& tree, const ValueId* e_values,
                 const double* e_numerics, RowId spare_id, QueryStats* stats,
                 std::vector<FastEntry>& stack);

 private:
  const TreeQueryContext& ctx_;
  std::vector<Phase2Level> levels_;
  std::vector<BucketBounds> numeric_;  // by ascending physical attribute
  std::vector<std::pair<Phase2Level*, AttrId>> categorical_;
};

/// Loads pages [*next_page, ...) of `data` into `tree` until the logical
/// tree memory reaches `budget_bytes` (at least one page). Pages are read
/// through `reader`, so a buffer pool attached to it can absorb repeated
/// batch loads of the same file.
Status LoadTreeBatch(const StoredDataset& data, PagedReader* reader,
                     uint64_t budget_bytes, PageId* next_page, ALTree* tree,
                     RowBatch* scratch);

}  // namespace internal_tree
}  // namespace nmrs

#endif  // NMRS_CORE_TREE_TRAVERSAL_H_
