#include "core/naive.h"

#include <algorithm>
#include <optional>

#include "common/timer.h"
#include "core/dominance.h"
#include "core/dominance_kernel.h"
#include "core/query_distance_table.h"
#include "data/columnar_batch.h"
#include "storage/paged_reader.h"

namespace nmrs {

StatusOr<ReverseSkylineResult> NaiveReverseSkyline(
    const StoredDataset& data, const SimilaritySpace& space,
    const Object& query, const RSOptions& opts,
    const ExecContext& exec) {
  SimulatedDisk* disk = data.disk();
  const Schema& schema = data.schema();
  const size_t m = schema.num_attributes();
  const bool numerics = schema.NumNumeric() > 0;

  Timer timer;
  const IoStats io_before = disk->stats();
  disk->InvalidateArmPosition();

  PagedReader reader = MakeReader(disk, opts.resilience, exec);
  const std::vector<AttrId> selected =
      ResolveSelectedAttrs(schema, opts.selected_attrs);
  const QueryDistanceTable qtable(space, schema, query, selected,
                                  opts.overlay);
  PruneContext ctx(space, schema, query, selected, &qtable);
  ReverseSkylineResult result;
  QueryStats& stats = result.stats;

  const uint64_t total_pages = data.num_pages();
  RowBatch outer(m, numerics);
  RowBatch inner(m, numerics);
  // Kernel path: column-major view of the current inner page and a kernel
  // over it. Cached by page id — the restart pattern means consecutive
  // candidates mostly get pruned inside the same early page, so the
  // transpose and the kernel's set-up amortize.
  ColumnarBatch cols;
  std::optional<DominanceKernel> kernel;
  PageId cols_page = 0;
  auto fold_kernel = [&] {
    if (!kernel) return;
    stats.kernel_checks += kernel->kernel_checks();
    stats.kernel_promotions += kernel->promotions();
    stats.kernel_scalar_rows += kernel->scalar_rows();
    stats.kernel_block_rows += kernel->block_rows();
  };
  for (PageId op = 0; op < total_pages; ++op) {
    outer.Clear();
    NMRS_RETURN_IF_ERROR(data.ReadPageVia(&reader, op, &outer));
    for (size_t i = 0; i < outer.size(); ++i) {
      ctx.SetCandidate(outer.row_values(i), outer.row_numerics(i));
      const RowId x_id = outer.id(i);
      bool pruned = false;
      // Scan D from the beginning, page by page, until a pruner shows up.
      // The restart pattern makes early pages far hotter than late ones —
      // exactly the skew a small buffer pool absorbs.
      for (PageId ip = 0; ip < total_pages && !pruned; ++ip) {
        inner.Clear();
        NMRS_RETURN_IF_ERROR(data.ReadPageVia(&reader, ip, &inner));
        if (opts.use_kernels) {
          if (!kernel || cols_page != ip) {
            fold_kernel();
            cols.Build(inner);
            kernel.emplace(ctx, cols, opts.kernel_promote_rows);
            cols_page = ip;
          }
          kernel->BeginCandidate();
          pruned = kernel->FindPrunerForward(0, inner.size(), x_id,
                                             &stats.pair_tests, &stats.checks);
          continue;
        }
        for (size_t j = 0; j < inner.size(); ++j) {
          if (inner.id(j) == x_id) continue;
          ++stats.pair_tests;
          if (ctx.Prunes(inner.row_values(j), inner.row_numerics(j),
                         &stats.checks)) {
            pruned = true;
            break;
          }
        }
      }
      if (!pruned) result.rows.push_back(x_id);
    }
  }

  fold_kernel();
  std::sort(result.rows.begin(), result.rows.end());
  stats.phase1_checks = stats.checks;
  stats.result_size = result.rows.size();
  stats.io = disk->stats() - io_before;
  reader.FoldStatsInto(&stats.io);
  stats.modeled_backoff_millis = reader.modeled_backoff_millis();
  stats.compute_millis = timer.ElapsedMillis();
  return result;
}

}  // namespace nmrs
