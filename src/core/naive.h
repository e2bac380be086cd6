#ifndef NMRS_CORE_NAIVE_H_
#define NMRS_CORE_NAIVE_H_

#include "common/statusor.h"
#include "core/query.h"
#include "data/stored_dataset.h"
#include "sim/similarity_space.h"

namespace nmrs {

/// Naive reverse skyline (paper Alg. 1): for every object X, scan the
/// database from the start looking for a pruner, stopping early when one is
/// found. Two pages of working memory (one holding X's page, one for the
/// scan). Up to |D| partial scans; O(n²) checks worst case. The baseline
/// everything else is measured against.
StatusOr<ReverseSkylineResult> NaiveReverseSkyline(
    const StoredDataset& data, const SimilaritySpace& space,
    const Object& query, const RSOptions& opts = {},
    const ExecContext& exec = {});

}  // namespace nmrs

#endif  // NMRS_CORE_NAIVE_H_
