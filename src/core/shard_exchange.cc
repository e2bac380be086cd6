#include "core/shard_exchange.h"

#include <algorithm>

#include "core/dominance.h"
#include "core/query_distance_table.h"
#include "core/tree_traversal.h"

namespace nmrs {

Status CollectRowsById(const StoredDataset& data, PagedReader* reader,
                       const std::vector<RowId>& ids, RowBatch* out) {
  if (ids.empty()) return Status::OK();
  const Schema& schema = data.schema();
  RowBatch page(schema.num_attributes(), schema.NumNumeric() > 0);
  size_t found = 0;
  const uint64_t num_pages = data.num_pages();
  for (PageId p = 0; p < num_pages && found < ids.size(); ++p) {
    page.Clear();
    NMRS_RETURN_IF_ERROR(data.ReadPageVia(reader, p, &page));
    for (size_t r = 0; r < page.size(); ++r) {
      if (!std::binary_search(ids.begin(), ids.end(), page.id(r))) continue;
      out->Append(page.id(r), page.row_values(r), page.row_numerics(r));
      ++found;
    }
  }
  if (found < ids.size()) {
    return Status::InvalidArgument(
        "CollectRowsById: some requested rows do not exist in the dataset");
  }
  return Status::OK();
}

Status BuildShardIndex(const StoredDataset& data, PagedReader* reader,
                       ALTree* index) {
  NMRS_CHECK(index->empty());
  RowBatch page(data.schema().num_attributes(),
                data.schema().NumNumeric() > 0);
  PageId next_page = 0;
  NMRS_RETURN_IF_ERROR(internal_tree::LoadTreeBatch(
      data, reader, ~uint64_t{0}, &next_page, index, &page));
  index->PrepareForSearch();
  return Status::OK();
}

void PruneCandidatesWithIndex(const ALTree& index,
                              const SimilaritySpace& space,
                              const Object& query, const RowBatch& candidates,
                              const RSOptions& opts,
                              std::vector<uint8_t>* pruned,
                              QueryStats* stats) {
  pruned->assign(candidates.size(), 0);
  if (candidates.size() == 0) return;
  const Schema& schema = index.schema();

  const std::vector<AttrId> selected =
      ResolveSelectedAttrs(schema, opts.selected_attrs);
  const QueryDistanceTable qtable(space, schema, query, selected,
                                  opts.overlay);
  PruneContext ctx(space, schema, query, selected, &qtable);
  internal_tree::IndexLevels levels(index, selected);
  std::vector<internal_tree::FastEntry> stack;
  stack.reserve(256);
  for (size_t i = 0; i < candidates.size(); ++i) {
    ctx.SetCandidate(candidates.row_values(i), candidates.row_numerics(i));
    ++stats->pair_tests;
    if (levels.FindPruner(ctx, candidates.id(i), ALTree::kInvalidNode, stats,
                          stack) != ALTree::kInvalidNode) {
      (*pruned)[i] = 1;
    }
  }
}

}  // namespace nmrs
