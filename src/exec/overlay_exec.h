#ifndef NMRS_EXEC_OVERLAY_EXEC_H_
#define NMRS_EXEC_OVERLAY_EXEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/query.h"
#include "data/object.h"
#include "data/stored_dataset.h"
#include "exec/thread_pool.h"
#include "sim/similarity_space.h"
#include "storage/paged_reader.h"
#include "storage/replica_set.h"

namespace nmrs {

class MatrixOverlay;

/// Where the overlay stages of RunOverlayBatch run — the part QueryEngine
/// and ShardedQueryEngine share. `pool`'s workers read the whole base
/// dataset `data` (sensitivity and membership are properties of rows, not
/// of any partitioning) through worker w's clean primary view,
/// `replicas->view(w, 0)`: faults are a property of the base run, while
/// `reader_opts` keeps the sealed-page verification.
struct OverlayExecContext {
  ThreadPool* pool = nullptr;
  ReplicaSet* replicas = nullptr;
  const StoredDataset* data = nullptr;
  const SimilaritySpace* space = nullptr;
  std::vector<AttrId> selected;  // resolved (non-empty)
  PagedReaderOptions reader_opts;
  size_t overlay_group = 16;
};

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
/// clean view, filling `out` (its IO lands in out->io). Null or empty
/// overlays mark every row invariant for that user.
Status ClassifyOverlayRows(const OverlayExecContext& ctx,
                           const std::vector<const MatrixOverlay*>& overlays,
                           OverlayClassification* out);

/// Work of stage 3, summed over all of its tasks.
struct OverlayRecheckTotals {
  /// Grouped re-check passes: one per (query, user group).
  uint64_t scans = 0;
  /// Pruning work and IO of the hint pass and the re-checks together.
  uint64_t checks = 0;
  uint64_t pair_tests = 0;
  IoStats io;
};

/// Stage 3 of RunOverlayBatch: turns the base answers `base` (one per
/// query) into every (query, user) answer. For each query whose status is
/// ok:
///
///  1. Pruner hints — the stashed rows that two or more users re-check
///     and that lie outside the base answer are split into a fixed number
///     of chunks, one pool task each, and every such row records its first
///     base-space pruner in dataset scan order (values and numerics). Rows
///     in the base answer have no pruner; a row only one user re-checks
///     would not share its hint.
///  2. Re-checks — per group of up to `ctx.overlay_group` users with
///     sensitive rows, one task tests each candidate's hint once under the
///     user's overlaid PruneContext. Only candidates without a hint or
///     whose hint fails under the overlay go through the page-major pass
///     over the dataset (page -> user -> alive candidate -> rows, with the
///     early abort and the identity skip).
///
/// A hint is a real row of the dataset other than the candidate, so a hint
/// that prunes under the overlay is a valid witness and every answer stays
/// bit-identical to running the full algorithm over the patched space.
/// Per-candidate work is independent of chunking and grouping, so the
/// check and pair-test totals do not depend on the worker count.
///
/// results[q][u] is filled for every ok query (users without sensitive
/// rows get the base rows); a failed scan stores its error in
/// (*statuses)[q]. Every task adds its modeled time to
/// (*worker_modeled_millis)[w] of the worker w that ran it.
void RecheckOverlayBatch(const OverlayExecContext& ctx,
                         const std::vector<Object>& queries,
                         const std::vector<const MatrixOverlay*>& overlays,
                         const OverlayClassification& cls,
                         const std::vector<ReverseSkylineResult>& base,
                         std::vector<std::vector<ReverseSkylineResult>>* results,
                         std::vector<Status>* statuses,
                         std::vector<double>* worker_modeled_millis,
                         OverlayRecheckTotals* totals);

}  // namespace nmrs

#endif  // NMRS_EXEC_OVERLAY_EXEC_H_
