#ifndef NMRS_CORE_BICHROMATIC_H_
#define NMRS_CORE_BICHROMATIC_H_

#include "common/statusor.h"
#include "core/query.h"
#include "data/stored_dataset.h"
#include "sim/similarity_space.h"

namespace nmrs {

/// Bichromatic reverse skyline: two datasets share one schema — candidates
/// C (e.g. customers) and competitors P (e.g. the product catalog). For a
/// query q (a new product),
///
///   BRS_{C,P}(q) = { c ∈ C | ¬∃ p ∈ P, p ≻_c q }
///
/// — the candidates for which no competitor dominates q. This is the
/// two-set reading of the paper's marketing scenarios (§1: "choose
/// customers whose preference to the product is not dominated by other
/// products"); the monochromatic reverse skyline is the special case
/// C = P = D with self-pruning excluded.
///
/// Processing is single-phase (there is no intra-candidate pruning:
/// candidates never prune each other): candidate batches are loaded into
/// memory and the competitor set is streamed past each batch once.

/// Block variant: candidate batches are flat page images (memory - 1
/// pages), P streamed page by page.
StatusOr<ReverseSkylineResult> BichromaticBlockRS(
    const StoredDataset& candidates, const StoredDataset& competitors,
    const SimilaritySpace& space, const Object& query,
    const RSOptions& opts = {},
    const ExecContext& exec = {});

/// Tree variant: candidate batches are AL-Trees, and each streamed
/// competitor prunes whole groups via Prune(e, M)-style traversals — the
/// paper's group-level reasoning applied bichromatically. Candidates
/// should be multi-attribute pre-sorted for prefix sharing.
StatusOr<ReverseSkylineResult> BichromaticTreeRS(
    const StoredDataset& candidates, const StoredDataset& competitors,
    const SimilaritySpace& space, const Object& query,
    const RSOptions& opts = {},
    const ExecContext& exec = {});

/// In-memory oracle straight from the definition (O(|C|·|P|)).
std::vector<RowId> BichromaticOracle(const Dataset& candidates,
                                     const Dataset& competitors,
                                     const SimilaritySpace& space,
                                     const Object& query,
                                     const std::vector<AttrId>& selected = {});

}  // namespace nmrs

#endif  // NMRS_CORE_BICHROMATIC_H_
