#include "core/block_rs.h"

#include <algorithm>
#include <vector>

#include "common/sync.h"
#include "common/timer.h"
#include "core/dominance.h"
#include "core/dominance_kernel.h"
#include "core/query_distance_table.h"
#include "data/columnar_batch.h"
#include "data/segment_store.h"
#include "storage/paged_reader.h"

namespace nmrs {

namespace {

// Phase-1 pruner search order within a batch.
enum class SearchOrder {
  kForward,  // BRS: plain 0..n scan
  kRing,     // SRS: offsets ±1, ±2, ... from the candidate's sorted position
};

void AddKernelTelemetry(const DominanceKernel& kernel, QueryStats* stats) {
  stats->kernel_checks += kernel.kernel_checks();
  stats->kernel_promotions += kernel.promotions();
  stats->kernel_scalar_rows += kernel.scalar_rows();
  stats->kernel_block_rows += kernel.block_rows();
}

// The candidate side of the run collapse (docs/KERNELS.md, "Runs of
// identical rows"). The SRS ring tests a candidate's left neighbour first;
// when the candidate continues a run, that neighbour is an identical row,
// so the test's verdict and check count depend only on the run. They are
// computed once per run and replayed: a pruning test settles the candidate
// with the scalar probe's counters (1 pair test, its checks, 1 scalar
// row), any other leaves it to the full search, which makes that test
// itself. Only the adaptive probe makes this test a scalar one, so
// promote_rows == 0 never replays. One instance per (batch, chunk): the
// memo is local.
class RingReplay {
 public:
  // Whether candidate i (set on `ctx`) is pruned by row i - 1 through the
  // replay; adds the counters if so. Row i - 1 is the candidate's
  // identical twin, so the test reads the candidate's own values.
  bool Prunes(const ColumnarBatch& cols, const PruneContext& ctx, size_t i,
              QueryStats* stats) {
    if (i == 0 || cols.run_of(i) != cols.run_of(i - 1) ||
        cols.id(i) == cols.id(i - 1)) {
      return false;
    }
    if (run_ != cols.run_of(i)) {
      run_ = cols.run_of(i);
      checks_ = 0;
      verdict_ = ctx.Prunes(ctx.candidate_values(), ctx.candidate_numerics(),
                            &checks_);
    }
    if (!verdict_) return false;
    ++stats->pair_tests;
    stats->checks += checks_;
    ++stats->kernel_scalar_rows;
    return true;
  }

 private:
  size_t run_ = ~size_t{0};
  bool verdict_ = false;
  uint64_t checks_ = 0;
};

// One loaded phase-1 batch. The scalar path decodes its rows (`rows`); the
// kernel path holds it as columns only (`cols`), assembled from the pages'
// segments. Exactly one of the two is set.
struct Phase1Rows {
  const RowBatch* rows = nullptr;
  const ColumnarBatch* cols = nullptr;

  size_t size() const { return rows != nullptr ? rows->size() : cols->size(); }
  RowId id(size_t i) const {
    return rows != nullptr ? rows->id(i) : cols->id(i);
  }
};

// Row i of a loaded phase-1 batch in row-major form, for the calls that
// take one row: PruneContext::SetCandidate and RowWriter::Add. A decoded
// batch is pointed into; a columnar one is copied out of its columns.
class RowCursor {
 public:
  RowCursor(size_t num_attrs, bool numerics)
      : values_(num_attrs), numerics_(numerics ? num_attrs : 0) {}

  void Seek(const Phase1Rows& batch, size_t i) {
    if (batch.rows != nullptr) {
      values_at_ = batch.rows->row_values(i);
      numerics_at_ = batch.rows->row_numerics(i);
      return;
    }
    batch.cols->GatherRow(i, values_.data(), numerics_.data());
    values_at_ = values_.data();
    numerics_at_ = numerics_.empty() ? nullptr : numerics_.data();
  }
  const ValueId* values() const { return values_at_; }
  const double* numerics() const { return numerics_at_; }

 private:
  std::vector<ValueId> values_;
  std::vector<double> numerics_;
  const ValueId* values_at_ = nullptr;
  const double* numerics_at_ = nullptr;
};

// A query's reusable phase-1 buffers: the decoded rows or the assembled
// columns, and the query-local segment slots used when no segment store
// keeps the pages.
struct Phase1Buffers {
  Phase1Buffers(size_t m, bool numerics) : rows(m, numerics) {}

  RowBatch rows;
  ColumnarBatch cols;
  std::vector<ColumnarBatch> local;
};

// Reads pages [start, end) of `data` through `reader` as one phase-1
// batch. Every page is read, and charged, in order on either path; on the
// kernel path the columns come from each page's segment (ReadSegment),
// copied once per column per page into the batch.
StatusOr<Phase1Rows> LoadPhase1Batch(const StoredDataset& data,
                                     PagedReader* reader, PageId start,
                                     PageId end, bool use_kernels,
                                     SegmentStore* segments,
                                     Phase1Buffers* buf) {
  Phase1Rows loaded;
  if (!use_kernels) {
    buf->rows.Clear();
    for (PageId p = start; p < end; ++p) {
      NMRS_RETURN_IF_ERROR(data.ReadPageVia(reader, p, &buf->rows));
    }
    loaded.rows = &buf->rows;
    return loaded;
  }
  if (buf->local.size() < end - start) buf->local.resize(end - start);
  std::vector<const ColumnarBatch*> parts;
  parts.reserve(end - start);
  for (PageId p = start; p < end; ++p) {
    NMRS_ASSIGN_OR_RETURN(
        const ColumnarBatch* segment,
        ReadSegment(data, reader, p, segments, &buf->local[p - start]));
    parts.push_back(segment);
  }
  buf->cols.Assemble(parts);
  loaded.cols = &buf->cols;
  return loaded;
}

// Checks candidates [begin, end) of `batch` against all loaded rows and
// records which are pruned. `ctx` and the counters belong to the caller
// (one chunk when parallel), so this runs with no shared mutable state
// beyond the disjoint `pruned` slots — the per-candidate work is identical
// to the sequential scan, which keeps check counts deterministic. The
// scalar path is the seed loop over the row-major batch. The kernel path
// runs the same searches on a DominanceKernel — scalar probe first, blocks
// after promotion — with identical verdicts and pair/check accounting
// (DominanceKernel's equivalence contract), and adds its telemetry to
// *stats; rows of one run keep the run's candidate on `ctx`, and the ring
// replays the left-neighbour test per run (RingReplay).
void Phase1CheckRange(const Phase1Rows& batch, PruneContext& ctx,
                      SearchOrder order, uint32_t promote_rows, size_t begin,
                      size_t end, QueryStats* stats, uint8_t* pruned) {
  const size_t n = batch.size();
  if (batch.cols == nullptr) {
    const RowBatch& rows = *batch.rows;
    for (size_t i = begin; i < end; ++i) {
      ctx.SetCandidate(rows.row_values(i), rows.row_numerics(i));
      const RowId x_id = rows.id(i);
      auto try_pruner = [&](size_t j) {
        if (rows.id(j) == x_id) return false;
        ++stats->pair_tests;
        return ctx.Prunes(rows.row_values(j), rows.row_numerics(j),
                          &stats->checks);
      };
      bool found = false;
      if (order == SearchOrder::kForward) {
        for (size_t j = 0; j < n && !found; ++j) {
          found = j != i && try_pruner(j);
        }
      } else {
        // Expanding ring around i: sorted data puts likely pruners nearby.
        for (size_t off = 1; off < n && !found; ++off) {
          found = (off <= i && try_pruner(i - off)) ||
                  (i + off < n && try_pruner(i + off));
        }
      }
      pruned[i] = found ? 1 : 0;
    }
    return;
  }
  const ColumnarBatch& cols = *batch.cols;
  DominanceKernel kernel(ctx, cols, promote_rows);
  const bool replay = order == SearchOrder::kRing && promote_rows > 0;
  RingReplay ring_replay;
  RowCursor candidate(cols.num_attrs(), cols.has_numerics());
  for (size_t i = begin; i < end; ++i) {
    if (i == begin || cols.run_of(i) != cols.run_of(i - 1)) {
      candidate.Seek(batch, i);
      ctx.SetCandidate(candidate.values(), candidate.numerics());
    }
    bool found = replay && ring_replay.Prunes(cols, ctx, i, stats);
    if (!found) {
      kernel.BeginCandidate();
      found = order == SearchOrder::kForward
                  ? kernel.FindPrunerForward(0, n, cols.id(i),
                                             &stats->pair_tests,
                                             &stats->checks)
                  : kernel.FindPrunerRing(i, cols.id(i), &stats->pair_tests,
                                          &stats->checks);
    }
    pruned[i] = found ? 1 : 0;
  }
  AddKernelTelemetry(kernel, stats);
}

// Intra-batch pruning of one loaded batch; appends survivors to *writer in
// scan order. Pruned objects keep acting as pruners (paper Alg. 2 lines 4-7 iterate all
// loaded Y). With opts.num_threads > 1 the candidate checks are chunked
// across threads on `executor` (each chunk with its own PruneContext and
// counters, summed in chunk order); survivors are still written in scan
// order, so results, check totals, and IO match the sequential run exactly.
Status Phase1Batch(const Phase1Rows& batch, const SimilaritySpace& space,
                   const Schema& schema, const Object& query,
                   const RSOptions& opts, TaskExecutor* executor,
                   PruneContext& ctx, const QueryDistanceTable& qtable,
                   SearchOrder order,
                   QueryStats* stats, RowWriter* writer) {
  const size_t n = batch.size();
  std::vector<uint8_t> pruned(n, 0);
  if (opts.num_threads <= 1 || n < 2) {
    Phase1CheckRange(batch, ctx, order, opts.kernel_promote_rows, 0, n,
                     stats, pruned.data());
  } else {
    // More chunks than threads so the work-stealing pool can balance the
    // uneven per-candidate cost (a candidate pruned early is cheap). Chunk
    // counters are summed in chunk order, so the totals match the
    // sequential run exactly. Chunks share the loaded batch read-only.
    const size_t num_chunks =
        std::min(n, static_cast<size_t>(opts.num_threads) * 4);
    std::vector<QueryStats> counters(num_chunks);
    ParallelChunks(executor, opts.num_threads, num_chunks,
                   [&](size_t c) {
                     PruneContext chunk_ctx(space, schema, query,
                                            ctx.selected(), &qtable);
                     Phase1CheckRange(batch, chunk_ctx, order,
                                      opts.kernel_promote_rows,
                                      ChunkBegin(n, num_chunks, c),
                                      ChunkBegin(n, num_chunks, c + 1),
                                      &counters[c], pruned.data());
                   });
    for (const QueryStats& cc : counters) stats->MergeFrom(cc);
  }
  RowCursor row(schema.num_attributes(), schema.NumNumeric() > 0);
  for (size_t i = 0; i < n; ++i) {
    if (pruned[i]) continue;
    row.Seek(batch, i);
    NMRS_RETURN_IF_ERROR(
        writer->Add(batch.id(i), row.values(), row.numerics()));
  }
  return Status::OK();
}

// Phase 2 (paper Alg. 2 lines 9-19): survivors R are consumed in batches of
// (memory-1) pages; each batch is refined by one full sequential scan of D.
// With opts.use_kernels the kernel runs on each streamed D-page's segment
// (ReadSegment: kept in `segments`, or decoded into a query-local slot),
// shared by all still-alive candidates of the batch; results and
// accounting match the scalar scan exactly.
Status Phase2(const StoredDataset& data, const StoredDataset& survivors,
              PagedReader* reader, PruneContext& ctx, uint64_t batch_pages,
              const RSOptions& opts, SegmentStore* segments,
              QueryStats* stats, std::vector<RowId>* out) {
  const Schema& schema = data.schema();
  const size_t m = schema.num_attributes();
  const bool numerics = schema.NumNumeric() > 0;
  const uint64_t r_pages = survivors.num_pages();
  const uint64_t d_pages = data.num_pages();

  RowBatch page(m, numerics);
  ColumnarBatch local;
  for (PageId r_start = 0; r_start < r_pages; r_start += batch_pages) {
    ++stats->phase2_batches;
    const PageId r_end = std::min<PageId>(r_start + batch_pages, r_pages);
    RowBatch batch(m, numerics);
    for (PageId p = r_start; p < r_end; ++p) {
      NMRS_RETURN_IF_ERROR(survivors.ReadPageVia(reader, p, &batch));
    }
    std::vector<bool> alive(batch.size(), true);

    for (PageId dp = 0; dp < d_pages; ++dp) {
      if (opts.use_kernels) {
        NMRS_ASSIGN_OR_RETURN(
            const ColumnarBatch* cols,
            ReadSegment(data, reader, dp, segments, &local));
        DominanceKernel kernel(ctx, *cols, opts.kernel_promote_rows);
        for (size_t i = 0; i < batch.size(); ++i) {
          if (!alive[i]) continue;
          ctx.SetCandidate(batch.row_values(i), batch.row_numerics(i));
          kernel.BeginCandidate();
          if (kernel.FindPrunerForward(0, cols->size(), batch.id(i),
                                       &stats->pair_tests, &stats->checks)) {
            alive[i] = false;
          }
        }
        AddKernelTelemetry(kernel, stats);
        continue;
      }
      page.Clear();
      NMRS_RETURN_IF_ERROR(data.ReadPageVia(reader, dp, &page));
      for (size_t i = 0; i < batch.size(); ++i) {
        if (!alive[i]) continue;
        ctx.SetCandidate(batch.row_values(i), batch.row_numerics(i));
        const RowId x_id = batch.id(i);
        for (size_t j = 0; j < page.size(); ++j) {
          if (page.id(j) == x_id) continue;
          ++stats->pair_tests;
          if (ctx.Prunes(page.row_values(j), page.row_numerics(j),
                         &stats->checks)) {
            alive[i] = false;
            break;
          }
        }
      }
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      if (alive[i]) out->push_back(batch.id(i));
    }
  }
  return Status::OK();
}

StatusOr<ReverseSkylineResult> RunBlockAlgorithm(
    const StoredDataset& data, const SimilaritySpace& space,
    const Object& query, const RSOptions& opts, const ExecContext& exec,
    SearchOrder order) {
  SimulatedDisk* disk = data.disk();
  const Schema& schema = data.schema();
  const size_t m = schema.num_attributes();
  const bool numerics = schema.NumNumeric() > 0;
  if (opts.memory.pages < 2) {
    return Status::InvalidArgument(
        "block algorithms need a memory budget of at least 2 pages");
  }

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

  // ---- Phase 1: intra-batch pruning, spill survivors. ----
  Timer phase1_timer;
  FileId scratch = disk->CreateFile("rs-scratch");
  RowWriter writer(disk, scratch, schema, opts.resilience.checksum_pages);
  const uint64_t total_pages = data.num_pages();
  Phase1Buffers buf(m, numerics);
  for (PageId start = 0; start < total_pages; start += opts.memory.pages) {
    ++stats.phase1_batches;
    const PageId end =
        std::min<PageId>(start + opts.memory.pages, total_pages);
    NMRS_ASSIGN_OR_RETURN(
        const Phase1Rows batch,
        LoadPhase1Batch(data, &reader, start, end, opts.use_kernels,
                        exec.segments, &buf));
    NMRS_RETURN_IF_ERROR(Phase1Batch(batch, space, schema, query, opts,
                                     exec.executor, ctx, qtable, order,
                                     &stats, &writer));
    // Results are written out at the end of every batch (paper §4.1) —
    // this is what makes the per-batch random IO visible.
    NMRS_RETURN_IF_ERROR(writer.FlushPartial());
  }
  NMRS_RETURN_IF_ERROR(writer.Finish());
  stats.phase1_survivors = writer.rows_written();
  stats.phase1_checks = stats.checks;
  stats.phase1_millis = phase1_timer.ElapsedMillis();

  // ---- Phase 2: refine survivors against full scans of D. ----
  Timer phase2_timer;
  StoredDataset survivors(disk, scratch, schema, writer.rows_written(),
                          opts.resilience.checksum_pages);
  const uint64_t batch_pages = opts.memory.pages - 1;  // 1 page scans D
  NMRS_RETURN_IF_ERROR(Phase2(data, survivors, &reader, ctx, batch_pages,
                              opts, exec.segments, &stats, &result.rows));
  stats.phase2_checks = stats.checks - stats.phase1_checks;
  stats.phase2_millis = phase2_timer.ElapsedMillis();

  NMRS_RETURN_IF_ERROR(disk->DeleteFile(scratch));

  std::sort(result.rows.begin(), result.rows.end());
  stats.result_size = result.rows.size();
  stats.io = disk->stats() - io_before;
  reader.FoldStatsInto(&stats.io);
  stats.modeled_backoff_millis = reader.modeled_backoff_millis();
  stats.compute_millis = timer.ElapsedMillis();
  return result;
}

}  // namespace

StatusOr<ReverseSkylineResult> BlockReverseSkyline(
    const StoredDataset& data, const SimilaritySpace& space,
    const Object& query, const RSOptions& opts, const ExecContext& exec) {
  return RunBlockAlgorithm(data, space, query, opts, exec,
                           SearchOrder::kForward);
}

StatusOr<ReverseSkylineResult> SortReverseSkyline(
    const StoredDataset& sorted_data, const SimilaritySpace& space,
    const Object& query, const RSOptions& opts, const ExecContext& exec) {
  return RunBlockAlgorithm(sorted_data, space, query, opts, exec,
                           SearchOrder::kRing);
}

}  // namespace nmrs
