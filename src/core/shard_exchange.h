#ifndef NMRS_CORE_SHARD_EXCHANGE_H_
#define NMRS_CORE_SHARD_EXCHANGE_H_

#include <cstdint>
#include <vector>

#include "altree/al_tree.h"
#include "common/status.h"
#include "common/statusor.h"
#include "core/query.h"
#include "data/object.h"
#include "data/stored_dataset.h"
#include "sim/similarity_space.h"
#include "storage/paged_reader.h"

namespace nmrs {

/// The per-shard halves of the cross-shard pruner exchange
/// (docs/SHARDING.md): after a shard's local reverse-skyline run, its
/// surviving candidates must be serialized for export (CollectRowsById) and
/// every other shard's surviving candidates must be re-verified against
/// *all* of this shard's rows — the reverse-skyline pruning relation is not
/// transitive, so a shard's pruned rows still prune foreign candidates.
/// Every shard answers the verify from a resident AL-Tree of its rows
/// (BuildShardIndex + PruneCandidatesWithIndex, paper Alg. 4); numeric
/// attributes sit in it as buckets whose bounds filter and whose leaves'
/// exact values decide (paper §6). Under TRS the same tree also answers the
/// shard's local run when it fits the memory budget
/// (ResidentReverseSkyline), and its candidates leave straight from it.

/// Collects the stored rows whose ids appear in `ids` (ascending RowIds, as
/// every algorithm emits them) by one forward page scan of `data` through
/// `reader`, appending them to *out in stored order and stopping as soon as
/// all are found. IO lands on the reader's disk; the caller deltas its
/// stats. Returns InvalidArgument if some id does not exist in `data`.
Status CollectRowsById(const StoredDataset& data, PagedReader* reader,
                       const std::vector<RowId>& ids, RowBatch* out);

/// Loads every row of `data` into the empty `index` (one forward scan
/// through `reader`) and orders its children for search
/// (ALTree::PrepareForSearch): the read-only index of one shard, which
/// the exchange verify and resident TRS search.
/// Numeric attributes become bucket levels, and each leaf entry keeps its
/// exact numerics. The index's levels follow its own attr_order; any order
/// gives the same verdicts, only check counts differ. IO lands on the
/// reader's disk.
Status BuildShardIndex(const StoredDataset& data, PagedReader* reader,
                       ALTree* index);

/// BuildShardIndex for a shard whose index only resident TRS would search:
/// loads `data` as one TRS phase-1 batch of `budget_bytes` would
/// (internal_tree::LoadTreeBatch) and returns whether that batch held the
/// whole shard within the budget (LogicalMemoryBytes() < budget_bytes).
/// Only then is `index` prepared for search; otherwise it holds a prefix
/// of the shard for the caller to discard. A shard that does not fit thus
/// costs the pages of one phase-1 batch, not a full scan.
StatusOr<bool> BuildShardIndexWithin(const StoredDataset& data,
                                     PagedReader* reader,
                                     uint64_t budget_bytes, ALTree* index);

/// The verify round over a shard's index: one FindPrunerFast search (paper
/// Alg. 4) per candidate, which skips every value group that cannot prune
/// instead of testing every row. Sets (*pruned)[i] = 1 exactly when some
/// indexed row whose id differs from the candidate's prunes it (Definition
/// 1 under opts.selected_attrs and opts.overlay): each selected categorical
/// level compares the overlay-aware candidate column against the query
/// distance, each selected numeric level admits the buckets that could
/// hold a pruner and the leaves' exact values decide, and each unselected
/// level neither blocks a path nor makes it strict. Counts one pair test
/// per candidate and one check per visited child or exact comparison into
/// *stats; no IO.
void PruneCandidatesWithIndex(const ALTree& index,
                              const SimilaritySpace& space,
                              const Object& query, const RowBatch& candidates,
                              const RSOptions& opts,
                              std::vector<uint8_t>* pruned, QueryStats* stats);

/// What the searches of a read-only shard index need of its leaves, built
/// once per tree (BuildLeafTable) and only read after, so queries never
/// walk the tree to find them: the active leaves in ForEachActiveLeaf
/// order, each leaf's search offsets, and each leaf's full value vector.
/// Flat arrays with 32-bit offsets; the tree must outlive the table and
/// stay unchanged.
struct LeafTable {
  /// The active leaves, in ForEachActiveLeaf order.
  std::vector<ALTree::NodeId> leaves;
  /// leaves.size() + 1 offsets: leaf li's searches are [first[li],
  /// first[li + 1]), one per leaf of an all-categorical tree and one per
  /// leaf entry of a tree with numerics (whose exact step decides per row).
  std::vector<uint32_t> first = {0};
  /// num_attrs ValueIds per leaf, by physical attribute (LeafValues).
  std::vector<ValueId> values;
  size_t num_attrs = 0;

  size_t size() const { return leaves.size(); }
  uint32_t num_searches() const { return first.back(); }
  const ValueId* leaf_values(size_t li) const {
    return values.data() + li * num_attrs;
  }
};

/// The LeafTable of `index`, whose leaves no longer change.
LeafTable BuildLeafTable(const ALTree& index);

/// Resident TRS: TRS over a shard whose whole AL-Tree `index`
/// (BuildShardIndex) is one phase-1 batch, with `table` its LeafTable.
/// Every row of the shard is then checked against "M \ c" = all its other
/// rows (paper Alg. 3 line 5), so phase 1's survivors already are the
/// shard's reverse skyline and phase 2 has nothing left to prune. Each
/// active leaf gets one IndexLevels::FindPruner search with itself as
/// self_leaf; a tree with numeric attributes gets one search per leaf
/// entry, whose exact leaf step decides where the standalone TRS phase 1
/// only bounds by bucket. Overlays and attribute subsets act as in
/// PruneCandidatesWithIndex. Leaves are checked in RSOptions::num_threads
/// chunks on exec.executor, and chunk counters are summed in chunk order,
/// so every counter is independent of the thread count.
///
/// Everything that depends only on the tree comes from `table`: the call
/// neither walks the tree for its leaves nor rebuilds a leaf's values.
/// Its own work is the query's distance table, one verdict per search,
/// the searches, and a survivor pass that reads the leaves of unpruned
/// searches only.
///
/// Returns the rows in ascending order, with one pair test per search and
/// every check under phase 1: phase1_batches = 1 (0 for an empty index),
/// phase2_batches = 0 and no IO. `candidates` (may be null) receives the
/// surviving rows in leaf order, with their values from `table` and their
/// numerics from the tree.
ReverseSkylineResult ResidentReverseSkyline(const ALTree& index,
                                            const LeafTable& table,
                                            const SimilaritySpace& space,
                                            const Object& query,
                                            const RSOptions& opts,
                                            const ExecContext& exec,
                                            RowBatch* candidates);

}  // namespace nmrs

#endif  // NMRS_CORE_SHARD_EXCHANGE_H_
