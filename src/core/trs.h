#ifndef NMRS_CORE_TRS_H_
#define NMRS_CORE_TRS_H_

#include "common/statusor.h"
#include "core/query.h"
#include "data/stored_dataset.h"
#include "sim/similarity_space.h"

namespace nmrs {

/// TRS — Tree Reverse Skyline (paper §4.3, Algorithms 3-5), the paper's
/// main contribution. Works like BRS/SRS in two phases over a
/// multi-attribute pre-sorted database, but each in-memory batch is held as
/// an AL-Tree (prefix tree over a fixed attribute ordering), enabling:
///
///  * group-level reasoning: one distance check at an internal node decides
///    for every object sharing that value prefix (a child whose value is
///    farther from the candidate than the query's value kills its whole
///    subtree),
///  * early pruning: children are visited most-populous-first, steering the
///    DFS toward subtrees where a pruner is most likely,
///  * compact batches: prefix sharing packs more objects per memory budget,
///    which shrinks the number of batches and thus random IO.
///
/// Phase 1 searches the batch tree for a pruner of every loaded object c,
/// M \ c (Alg. 3 line 5, Alg. 4). The search skips one instance of c's own
/// leaf instead of removing it, so it only reads the tree and phase-1
/// threads (RSOptions::num_threads) share one tree. Phase 2 loads survivor
/// batches as a tree and streams the database, calling Prune(e, M) (Alg. 5)
/// to evict everything each scanned object e can prune. Numeric attributes
/// are handled by discretization (§6): phase-1 checks compare
/// bucket-interval distance bounds (conservative, so extra survivors but no
/// false dismissals) and phase-2 leaves keep exact values for exact
/// refinement.
///
/// `opts.attr_order` fixes the tree's attribute ordering (default:
/// ascending cardinality, §5.1). `opts.selected_attrs` restricts the query
/// to an attribute subset (§5.6): unselected tree levels pass through.
StatusOr<ReverseSkylineResult> TreeReverseSkyline(
    const StoredDataset& sorted_data, const SimilaritySpace& space,
    const Object& query, const RSOptions& opts = {},
    const ExecContext& exec = {});

}  // namespace nmrs

#endif  // NMRS_CORE_TRS_H_
