#ifndef NMRS_CORE_PIPELINE_H_
#define NMRS_CORE_PIPELINE_H_

#include <string>
#include <string_view>

#include "common/statusor.h"
#include "core/query.h"
#include "data/dataset.h"
#include "data/stored_dataset.h"
#include "sim/similarity_space.h"
#include "storage/disk.h"

namespace nmrs {

/// The reverse-skyline algorithms of the paper, plus the tile-ordered
/// variants of §5.6 (same query-time code as SRS/TRS, different
/// pre-processing data order).
enum class Algorithm {
  kNaive,    // Alg. 1
  kBRS,      // Alg. 2, unordered data
  kSRS,      // §4.2, multi-attribute sorted data
  kTRS,      // §4.3, multi-attribute sorted data + AL-Tree batches
  kTileSRS,  // §5.6, Z-order tiled data, SRS query processing
  kTileTRS,  // §5.6, Z-order tiled data, TRS query processing
};

std::string_view AlgorithmName(Algorithm a);

/// Pre-processing knobs (all query-independent, one-time work).
struct PrepareOptions {
  /// Attribute ordering for the sort / tree (empty = ascending cardinality).
  std::vector<AttrId> attr_order;
  /// Tiles per dimension for the Z-order variants.
  size_t tiles_per_dim = 4;
  /// Seal every dataset page with a CRC-32C footer (docs/ROBUSTNESS.md).
  /// Queries over such a dataset may set RSOptions::checksum_pages to
  /// verify integrity on every read. Changes rows_per_page, so IO counts
  /// differ from the unsealed layout — strictly opt-in.
  bool checksum_pages = false;
};

/// A dataset materialized on disk in the order the chosen algorithm
/// expects, plus the bookkeeping to interpret results.
struct PreparedDataset {
  StoredDataset stored;
  std::vector<AttrId> attr_order;  // resolved ordering used (if any)
  double prepare_millis = 0;       // in-memory ordering + serialization time
};

/// Orders (if required by `algo`) and serializes `data` onto `disk`. The
/// ordering permutation is computed in memory — use
/// ExternalMultiAttributeSort (order/multi_sort.h) to model the disk-based
/// pre-processing cost itself (§5.5).
StatusOr<PreparedDataset> PrepareDataset(SimulatedDisk* disk,
                                         const Dataset& data, Algorithm algo,
                                         const PrepareOptions& opts = {},
                                         const std::string& name = "dataset");

/// Runs `algo` over a prepared dataset. `opts.attr_order` is defaulted to
/// the prepared ordering for TRS variants.
StatusOr<ReverseSkylineResult> RunReverseSkyline(
    const PreparedDataset& prepared, const SimilaritySpace& space,
    const Object& query, Algorithm algo, RSOptions opts = {},
    const ExecContext& exec = {});

}  // namespace nmrs

#endif  // NMRS_CORE_PIPELINE_H_
