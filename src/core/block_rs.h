#ifndef NMRS_CORE_BLOCK_RS_H_
#define NMRS_CORE_BLOCK_RS_H_

#include "common/statusor.h"
#include "core/query.h"
#include "data/stored_dataset.h"
#include "sim/similarity_space.h"

namespace nmrs {

/// BRS — Block Reverse Skyline (paper Alg. 2). Phase 1 loads
/// memory-sized batches of contiguous pages and prunes within each batch
/// (pruned objects still act as pruners), spilling survivors to a scratch
/// area. Phase 2 loads survivor batches of (memory - 1) pages and streams
/// the full database past each batch, one page at a time, removing anything
/// pruned; what remains is output.
StatusOr<ReverseSkylineResult> BlockReverseSkyline(
    const StoredDataset& data, const SimilaritySpace& space,
    const Object& query, const RSOptions& opts = {},
    const ExecContext& exec = {});

/// SRS — Sort Reverse Skyline (paper §4.2): BRS executed over a
/// multi-attribute pre-sorted database (the caller is responsible for the
/// pre-sort; see PrepareDataset). The only algorithmic difference is the
/// phase-1 pruner search order: for each object the search radiates outward
/// from its position in the sorted order (offsets ±1, ±2, ...), so that a
/// nearby pruner — likely, since sorting clusters shared values — is found
/// after few checks.
StatusOr<ReverseSkylineResult> SortReverseSkyline(
    const StoredDataset& sorted_data, const SimilaritySpace& space,
    const Object& query, const RSOptions& opts = {},
    const ExecContext& exec = {});

}  // namespace nmrs

#endif  // NMRS_CORE_BLOCK_RS_H_
