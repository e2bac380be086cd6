#include "core/shard_exchange.h"

#include <algorithm>
#include <limits>
#include <span>

#include "common/sync.h"
#include "common/timer.h"
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
  return BuildShardIndexWithin(data, reader, ~uint64_t{0}, index).status();
}

StatusOr<bool> BuildShardIndexWithin(const StoredDataset& data,
                                     PagedReader* reader,
                                     uint64_t budget_bytes, ALTree* index) {
  NMRS_CHECK(index->empty());
  RowBatch page(data.schema().num_attributes(),
                data.schema().NumNumeric() > 0);
  PageId next_page = 0;
  NMRS_RETURN_IF_ERROR(internal_tree::LoadTreeBatch(
      data, reader, budget_bytes, &next_page, index, &page));
  if (next_page < data.num_pages() ||
      index->LogicalMemoryBytes() >= budget_bytes) {
    return false;
  }
  index->PrepareForSearch();
  return true;
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

LeafTable BuildLeafTable(const ALTree& index) {
  LeafTable table;
  table.num_attrs = index.schema().num_attributes();
  index.ForEachActiveLeaf([&](ALTree::NodeId l) { table.leaves.push_back(l); });
  table.leaves.shrink_to_fit();
  const size_t n = table.leaves.size();
  const bool numerics = index.has_numerics();
  NMRS_CHECK_LE(index.num_objects(),
                uint64_t{std::numeric_limits<uint32_t>::max()});
  table.first.resize(n + 1);
  table.values.resize(n * table.num_attrs);
  std::vector<ValueId> values(table.num_attrs, 0);
  for (size_t li = 0; li < n; ++li) {
    const ALTree::NodeId leaf = table.leaves[li];
    table.first[li + 1] =
        table.first[li] + (numerics ? index.LeafCount(leaf) : 1);
    internal_tree::LeafValues(index, leaf, index.attr_order(), &values);
    std::copy(values.begin(), values.end(),
              table.values.begin() + li * table.num_attrs);
  }
  return table;
}

ReverseSkylineResult ResidentReverseSkyline(const ALTree& index,
                                            const LeafTable& table,
                                            const SimilaritySpace& space,
                                            const Object& query,
                                            const RSOptions& opts,
                                            const ExecContext& exec,
                                            RowBatch* candidates) {
  Timer timer;
  ReverseSkylineResult result;
  QueryStats& stats = result.stats;
  const Schema& schema = index.schema();
  const bool numerics = index.has_numerics();
  const std::vector<AttrId> selected =
      ResolveSelectedAttrs(schema, opts.selected_attrs);
  const QueryDistanceTable qtable(space, schema, query, selected,
                                  opts.overlay);
  const size_t num_leaves = table.size();
  const std::vector<uint32_t>& first = table.first;
  std::vector<uint8_t> pruned(table.num_searches(), 0);

  // Checks leaves [begin, end) with chunk-owned scratch and counters. The
  // searches only read `index`, so chunks share it. Chunks are runs of
  // whole memo blocks and the memo restarts at every block, so the counters
  // do not depend on the chunking.
  auto check_leaves = [&](size_t begin, size_t end, QueryStats* st) {
    PruneContext ctx(space, schema, query, selected, &qtable);
    internal_tree::IndexLevels levels(index, selected);
    std::vector<internal_tree::FastEntry> stack;
    stack.reserve(256);
    const size_t memo_block = internal_tree::PrunerMemo::BlockSize(num_leaves);
    for (size_t li = begin; li < end; ++li) {
      const ALTree::NodeId leaf = table.leaves[li];
      if (li % memo_block == 0) levels.memo().Reset();
      const ValueId* values = table.leaf_values(li);
      if (!numerics) {
        ctx.SetCandidate(values, nullptr);
        ++st->pair_tests;
        pruned[first[li]] = levels.FindPruner(ctx, kInvalidRowId, leaf, st,
                                              stack) != ALTree::kInvalidNode;
        continue;
      }
      const std::span<const RowId> rows = index.LeafRows(leaf);
      for (size_t i = 0; i < rows.size(); ++i) {
        ctx.SetCandidate(values, index.LeafNumerics(leaf, i));
        ++st->pair_tests;
        pruned[first[li] + i] =
            levels.FindPruner(ctx, rows[i], leaf, st, stack) !=
            ALTree::kInvalidNode;
      }
    }
  };

  if (opts.num_threads <= 1 || num_leaves < 2) {
    check_leaves(0, num_leaves, &stats);
  } else {
    const size_t num_chunks =
        std::min(internal_tree::NumMemoBlocks(num_leaves),
                 static_cast<size_t>(opts.num_threads) * 2);
    std::vector<QueryStats> chunk_stats(num_chunks);
    ParallelChunks(
        exec.executor, opts.num_threads, num_chunks, [&](size_t c) {
          check_leaves(
              internal_tree::BlockChunkBegin(num_leaves, num_chunks, c),
              internal_tree::BlockChunkBegin(num_leaves, num_chunks, c + 1),
              &chunk_stats[c]);
        });
    for (const QueryStats& cs : chunk_stats) stats.MergeFrom(cs);
  }

  // The survivors are the answer, in leaf order. Only an unpruned search
  // reads its leaf; values come from the table.
  if (candidates != nullptr) candidates->Clear();
  for (size_t li = 0; li < num_leaves; ++li) {
    const ALTree::NodeId leaf = table.leaves[li];
    if (!numerics) {
      if (pruned[first[li]]) continue;
      for (RowId r : index.LeafRows(leaf)) {
        result.rows.push_back(r);
        if (candidates != nullptr) {
          candidates->Append(r, table.leaf_values(li), nullptr);
        }
      }
      continue;
    }
    for (uint32_t j = first[li]; j < first[li + 1]; ++j) {
      if (pruned[j]) continue;
      const size_t i = j - first[li];
      const RowId r = index.LeafRows(leaf)[i];
      result.rows.push_back(r);
      if (candidates != nullptr) {
        candidates->Append(r, table.leaf_values(li),
                           index.LeafNumerics(leaf, i));
      }
    }
  }
  std::sort(result.rows.begin(), result.rows.end());

  stats.phase1_checks = stats.checks;
  stats.phase1_batches = index.empty() ? 0 : 1;
  stats.phase1_survivors = result.rows.size();
  stats.result_size = result.rows.size();
  stats.compute_millis = timer.ElapsedMillis();
  stats.phase1_millis = stats.compute_millis;
  return result;
}

}  // namespace nmrs
