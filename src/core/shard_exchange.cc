#include "core/shard_exchange.h"

#include <algorithm>

#include "core/dominance.h"
#include "core/dominance_kernel.h"
#include "core/query_distance_table.h"
#include "core/tree_traversal.h"
#include "data/columnar_batch.h"

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

Status PruneCandidatesAgainstShard(const StoredDataset& data,
                                   const SimilaritySpace& space,
                                   const Object& query,
                                   const RowBatch& candidates,
                                   const RSOptions& opts, PagedReader* reader,
                                   std::vector<uint8_t>* pruned,
                                   QueryStats* stats) {
  pruned->assign(candidates.size(), 0);
  if (candidates.size() == 0) return Status::OK();
  const Schema& schema = data.schema();
  const size_t m = schema.num_attributes();
  const bool numerics = schema.NumNumeric() > 0;

  const std::vector<AttrId> selected =
      ResolveSelectedAttrs(schema, opts.selected_attrs);
  const QueryDistanceTable qtable(space, schema, query, selected,
                                  opts.overlay);
  PruneContext ctx(space, schema, query, selected, &qtable);

  const uint64_t num_pages = data.num_pages();
  RowBatch page(m, numerics);
  ColumnarBatch cols;
  // One candidate-major pass per streamed page, with the same early-out a
  // phase-2 batch gets: a candidate already pruned is never re-checked.
  for (PageId dp = 0; dp < num_pages; ++dp) {
    page.Clear();
    NMRS_RETURN_IF_ERROR(data.ReadPageVia(reader, dp, &page));
    if (opts.use_kernels) {
      cols.Build(page);
      DominanceKernel kernel(
          ctx, cols, {opts.kernel_promote_rows, DominanceKernel::kBlockRows});
      for (size_t i = 0; i < candidates.size(); ++i) {
        if ((*pruned)[i]) continue;
        ctx.SetCandidate(candidates.row_values(i), candidates.row_numerics(i));
        kernel.BeginCandidate();
        if (kernel.FindPrunerForward(0, page.size(), candidates.id(i),
                                     &stats->pair_tests, &stats->checks)) {
          (*pruned)[i] = 1;
        }
      }
      stats->kernel_checks += kernel.kernel_checks();
      stats->kernel_promotions += kernel.promotions();
      stats->kernel_scalar_rows += kernel.scalar_rows();
      stats->kernel_block_rows += kernel.block_rows();
      continue;
    }
    for (size_t i = 0; i < candidates.size(); ++i) {
      if ((*pruned)[i]) continue;
      ctx.SetCandidate(candidates.row_values(i), candidates.row_numerics(i));
      const RowId x_id = candidates.id(i);
      for (size_t j = 0; j < page.size(); ++j) {
        if (page.id(j) == x_id) continue;
        ++stats->pair_tests;
        if (ctx.Prunes(page.row_values(j), page.row_numerics(j),
                       &stats->checks)) {
          (*pruned)[i] = 1;
          break;
        }
      }
    }
  }
  return Status::OK();
}

Status BuildShardIndex(const StoredDataset& data, PagedReader* reader,
                       ALTree* index) {
  NMRS_CHECK_EQ(data.schema().NumNumeric(), 0u);
  NMRS_CHECK(index->empty());
  RowBatch page(data.schema().num_attributes(), /*has_numerics=*/false);
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
  NMRS_CHECK_EQ(schema.NumNumeric(), 0u);
  const std::vector<AttrId>& order = index.attr_order();

  const std::vector<AttrId> selected =
      ResolveSelectedAttrs(schema, opts.selected_attrs);
  const QueryDistanceTable qtable(space, schema, query, selected,
                                  opts.overlay);
  PruneContext ctx(space, schema, query, selected, &qtable);

  // selected_pos[l]: the position in `selected` of level l's attribute.
  // Unselected levels read an all-zero column against a zero threshold:
  // every value passes (0 <= 0) and none passes strictly (0 < 0).
  constexpr size_t kUnselected = ~size_t{0};
  std::vector<size_t> selected_pos(order.size(), kUnselected);
  size_t max_card = 0;
  for (size_t l = 0; l < order.size(); ++l) {
    for (size_t k = 0; k < selected.size(); ++k) {
      if (selected[k] == order[l]) selected_pos[l] = k;
    }
    max_card = std::max<size_t>(max_card,
                                schema.attribute(order[l]).cardinality);
  }
  const std::vector<double> zeros(max_card, 0.0);
  std::vector<internal_tree::Phase1Level> levels(order.size(),
                                                 {zeros.data(), 0.0});
  std::vector<internal_tree::FastEntry> stack;
  stack.reserve(256);
  for (size_t i = 0; i < candidates.size(); ++i) {
    ctx.SetCandidate(candidates.row_values(i), nullptr);
    for (size_t l = 0; l < order.size(); ++l) {
      const size_t k = selected_pos[l];
      if (k == kUnselected) continue;
      levels[l] = {ctx.CandidateColumn(k), ctx.QueryDist(k)};
    }
    ++stats->pair_tests;
    if (internal_tree::IsPrunableFast(index, levels, stats, stack)) {
      (*pruned)[i] = 1;
    }
  }
}

}  // namespace nmrs
