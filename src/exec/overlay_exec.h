#ifndef NMRS_EXEC_OVERLAY_EXEC_H_
#define NMRS_EXEC_OVERLAY_EXEC_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "altree/al_tree.h"
#include "common/status.h"
#include "core/query.h"
#include "core/shard_exchange.h"
#include "data/object.h"
#include "data/stored_dataset.h"
#include "exec/thread_pool.h"
#include "sim/similarity_space.h"
#include "storage/paged_reader.h"
#include "storage/replica_set.h"

namespace nmrs {

class MatrixOverlay;

/// Users whose overlay-sensitive candidates one re-check task decides
/// together (docs/OVERLAYS.md): one task per (query, group of up to this
/// many users).
inline constexpr size_t kOverlayGroup = 16;

/// A shard's read-only AL-Tree (BuildShardIndex), its LeafTable, and
/// IndexRowLeaves of it.
struct ShardTree {
  const ALTree* tree = nullptr;
  const LeafTable* leaves = nullptr;
  std::span<const ALTree::NodeId> row_leaf;
};

/// Where the overlay stages of QueryEngine::RunOverlayBatch run. They
/// work on the whole base dataset `data` (sensitivity and membership are
/// properties of rows, not of any partitioning). Every page read goes
/// through worker w's clean primary view, `replicas->view(w, 0)`: faults
/// are a property of the base run, while `resilience` keeps the
/// sealed-page verification. `indexes` are the active shards' trees in
/// shard order, which together hold every row of `data` once; the pruner
/// hints and re-checks search them and read no pages.
struct OverlayExecContext {
  ThreadPool* pool = nullptr;
  ReplicaSet* replicas = nullptr;
  const StoredDataset* data = nullptr;
  const SimilaritySpace* space = nullptr;
  std::vector<AttrId> selected;  // resolved (non-empty)
  ResiliencePolicy resilience;
  std::vector<ShardTree> indexes;
};

/// Each row's own leaf in a read-only index whose LeafTable is `table`:
/// result[r] is the leaf whose LeafRows hold RowId r (kInvalidNode for ids
/// the index does not hold). Built once per index, so a search can skip its
/// candidate's own instance without finding the leaf first.
std::vector<ALTree::NodeId> IndexRowLeaves(const ALTree& index,
                                           const LeafTable& table);

/// RunOverlayBatch's argument checks: valid resilience options, a null
/// `rs.overlay` template (the per-user overlays come from `overlays`), at
/// least one user, and every overlay non-null and built over `space`.
Status ValidateOverlayUsers(const RSOptions& rs,
                            const std::vector<const MatrixOverlay*>& overlays,
                            const SimilaritySpace& space);

/// Query-independent classification of a dataset against K user overlays
/// (docs/OVERLAYS.md). A candidate row X is overlay-SENSITIVE for user u iff
/// some selected categorical attribute a has a delta entry whose destination
/// is x_a: those are exactly the rows whose pruning checks read a patched
/// matrix column d_a(., x_a), so every other row ("overlay-invariant") keeps
/// its base-space reverse-skyline membership verbatim — for any query. The
/// classification depends only on (dataset, overlays, selection) and is
/// computed once per batch, then reused by every query.
struct OverlayClassification {
  /// Union of the rows sensitive for at least one user, stashed once so the
  /// re-check scans never have to re-find their candidate rows on disk.
  RowBatch sensitive{0, false};

  /// user_rows[u] = indices into `sensitive` of user u's sensitive rows, in
  /// dataset scan order.
  std::vector<std::vector<uint32_t>> user_rows;

  uint64_t rows_scanned = 0;
  IoStats io;
  double classify_millis = 0;

  /// Number of sensitive (row, user) pairs: the sum of |user_rows[u]| over
  /// all users.
  uint64_t TotalSensitive() const {
    uint64_t n = 0;
    for (const auto& v : user_rows) n += v.size();
    return n;
  }
  /// Number of invariant (row, user) pairs: rows_scanned * users minus
  /// TotalSensitive().
  uint64_t TotalInvariant() const {
    return rows_scanned * user_rows.size() - TotalSensitive();
  }
};

/// Stage 1 of RunOverlayBatch: one pass over the base dataset on worker 0's
/// clean view, filling `out` (its IO lands in out->io). A row's sensitive
/// users are the OR of per-(selected categorical attribute, value) user
/// bitmasks built once per call. Null or empty overlays mark every row
/// invariant for that user.
Status ClassifyOverlayRows(const OverlayExecContext& ctx,
                           const std::vector<const MatrixOverlay*>& overlays,
                           OverlayClassification* out);

/// Work of stage 3, summed over all of its tasks.
struct OverlayRecheckTotals {
  /// Grouped re-check tasks: one per (query, user group).
  uint64_t scans = 0;
  /// Pruning work of the hint pass and the re-checks together.
  uint64_t checks = 0;
  uint64_t pair_tests = 0;
};

/// Stage 3 of RunOverlayBatch: turns the base answers `base` (one per
/// query) into every (query, user) answer. A search below asks the trees
/// of `ctx.indexes` in shard order, up to the first pruner, and skips the
/// candidate's own instance. For each query whose status is ok:
///
///  1. Pruner hints — the stashed rows that two or more users re-check
///     and that lie outside the base answer are split into a fixed number
///     of chunks per query (four), one pool task each, and every such row
///     records one base-space pruner (values and numerics, from the tree
///     it sits in): the first one a search meets. The chunks share one base
///     QueryDistanceTable per query. Rows in the base answer have no
///     pruner; a row only one user re-checks would not share its hint.
///  2. Re-checks — per group of up to kOverlayGroup users with
///     sensitive rows, one task tests each candidate's hint once under the
///     user's overlaid PruneContext (over one overlaid QueryDistanceTable
///     per (query, user)). A candidate without a hint, or whose
///     hint fails under the overlay, is then decided by one search under
///     the same context.
///
/// A hint is a real row of the dataset other than the candidate, so a hint
/// that prunes under the overlay is a valid witness and every answer stays
/// bit-identical to running the full algorithm over the patched space.
/// Per-candidate work is independent of chunking and grouping, so the
/// check and pair-test totals do not depend on the worker count. No task
/// reads a page.
///
/// results[q][u] is filled for every ok query (users without sensitive
/// rows get the base rows). Every task adds its modeled time to
/// (*worker_modeled_millis)[w] of the worker w that ran it.
void RecheckOverlayBatch(const OverlayExecContext& ctx,
                         const std::vector<Object>& queries,
                         const std::vector<const MatrixOverlay*>& overlays,
                         const OverlayClassification& cls,
                         const std::vector<ReverseSkylineResult>& base,
                         std::vector<std::vector<ReverseSkylineResult>>* results,
                         const std::vector<Status>& statuses,
                         std::vector<double>* worker_modeled_millis,
                         OverlayRecheckTotals* totals);

}  // namespace nmrs

#endif  // NMRS_EXEC_OVERLAY_EXEC_H_
