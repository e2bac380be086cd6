#include "core/pipeline.h"

#include <numeric>

#include "common/timer.h"
#include "core/block_rs.h"
#include "core/naive.h"
#include "core/trs.h"
#include "order/attribute_order.h"
#include "sim/matrix_overlay.h"
#include "order/multi_sort.h"
#include "order/zorder.h"

namespace nmrs {

std::string_view AlgorithmName(Algorithm a) {
  switch (a) {
    case Algorithm::kNaive:
      return "Naive";
    case Algorithm::kBRS:
      return "BRS";
    case Algorithm::kSRS:
      return "SRS";
    case Algorithm::kTRS:
      return "TRS";
    case Algorithm::kTileSRS:
      return "T-SRS";
    case Algorithm::kTileTRS:
      return "T-TRS";
  }
  return "?";
}

namespace {

// Writes `data` onto `disk` in permutation `order`, preserving original
// RowIds (so results stay comparable across orderings).
StatusOr<StoredDataset> StoreOrdered(SimulatedDisk* disk, const Dataset& data,
                                     const std::vector<RowId>& order,
                                     const std::string& name, bool checksum) {
  FileId file = disk->CreateFile(name);
  RowWriter writer(disk, file, data.schema(), checksum);
  for (RowId src : order) {
    NMRS_RETURN_IF_ERROR(
        writer.Add(src, data.RowValues(src), data.RowNumerics(src)));
  }
  NMRS_RETURN_IF_ERROR(writer.Finish());
  return StoredDataset(disk, file, data.schema(), data.num_rows(), checksum);
}

}  // namespace

StatusOr<PreparedDataset> PrepareDataset(SimulatedDisk* disk,
                                         const Dataset& data, Algorithm algo,
                                         const PrepareOptions& opts,
                                         const std::string& name) {
  Timer timer;
  std::vector<AttrId> attr_order =
      opts.attr_order.empty() ? AscendingCardinalityOrder(data.schema())
                              : opts.attr_order;

  std::vector<RowId> order;
  switch (algo) {
    case Algorithm::kNaive:
    case Algorithm::kBRS:
      order.resize(data.num_rows());
      std::iota(order.begin(), order.end(), 0);
      break;
    case Algorithm::kSRS:
    case Algorithm::kTRS:
      order = MultiAttributeSortOrder(data, attr_order);
      break;
    case Algorithm::kTileSRS:
    case Algorithm::kTileTRS:
      order = TileZOrder(data, attr_order, opts.tiles_per_dim);
      break;
  }

  NMRS_ASSIGN_OR_RETURN(
      StoredDataset stored,
      StoreOrdered(disk, data, order, name, opts.checksum_pages));
  PreparedDataset prepared{std::move(stored), std::move(attr_order),
                           timer.ElapsedMillis()};
  return prepared;
}

StatusOr<ReverseSkylineResult> RunReverseSkyline(
    const PreparedDataset& prepared, const SimilaritySpace& space,
    const Object& query, Algorithm algo, RSOptions opts,
    const ExecContext& exec) {
  if (opts.attr_order.empty()) opts.attr_order = prepared.attr_order;
  if (opts.overlay != nullptr && opts.overlay->empty()) opts.overlay = nullptr;
  if (opts.overlay != nullptr && &opts.overlay->base() != &space) {
    return Status::InvalidArgument(
        "RSOptions::overlay was built over a different base space");
  }
  switch (algo) {
    case Algorithm::kNaive:
      return NaiveReverseSkyline(prepared.stored, space, query, opts, exec);
    case Algorithm::kBRS:
      return BlockReverseSkyline(prepared.stored, space, query, opts, exec);
    case Algorithm::kSRS:
    case Algorithm::kTileSRS:
      return SortReverseSkyline(prepared.stored, space, query, opts, exec);
    case Algorithm::kTRS:
    case Algorithm::kTileTRS:
      return TreeReverseSkyline(prepared.stored, space, query, opts, exec);
  }
  return Status::Internal("unknown algorithm");
}

}  // namespace nmrs
