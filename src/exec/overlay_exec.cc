#include "exec/overlay_exec.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>

#include "common/check.h"
#include "common/sync.h"
#include "common/timer.h"
#include "core/dominance.h"
#include "core/query_distance_table.h"
#include "sim/matrix_overlay.h"

namespace nmrs {
namespace {

// Hint-pass tasks per query. Fixed rather than derived from the pool size,
// so the hint pass reads the same pages whatever the worker count.
constexpr size_t kHintChunksPerQuery = 4;

// Runs `scan(data, reader)` over worker w's clean view of the base file;
// the IO it caused lands in *io.
template <typename Scan>
Status ScanOnWorker(const OverlayExecContext& ctx, int w, IoStats* io,
                    Scan&& scan) {
  DiskView* view = ctx.replicas->view(w, 0);
  const StoredDataset& base = *ctx.data;
  StoredDataset local(view, base.file(), base.schema(), base.num_rows(),
                      base.checksum_pages());
  PagedReader reader(view, nullptr, ctx.reader_opts);
  const IoStats before = ctx.replicas->WorkerStats(w);
  Status st = scan(local, &reader);
  *io = ctx.replicas->WorkerStats(w) - before;
  reader.FoldStatsInto(io);
  return st;
}

// One lane of a page-major pruner scan: a pruning context and the
// candidates it decides, as indices into the classification's stash.
struct ScanLane {
  PruneContext* ctx;
  const std::vector<uint32_t>* rows;
  std::vector<uint8_t>* alive;  // aligned with *rows; cleared when pruned
};

// Page-major first-pruner search: page -> lane -> alive candidate -> page
// rows, with the early abort (a pruned candidate is never re-checked) and
// the identity skip (a row never prunes itself). Stops at the first page
// where no candidate is alive. on_prune(lane, j, page, r) sees each
// candidate's first pruner in dataset scan order. Each candidate meets
// the rows in the same order and stops at the same pruner whichever other
// candidates share the pass, so its checks do not depend on the split.
template <typename OnPrune>
Status ScanForPruners(const StoredDataset& data, PagedReader* reader,
                      const RowBatch& cands, const std::vector<ScanLane>& lanes,
                      QueryStats* stats, OnPrune&& on_prune) {
  std::vector<size_t> pending(lanes.size());
  size_t total = 0;
  for (size_t l = 0; l < lanes.size(); ++l) {
    pending[l] = static_cast<size_t>(
        std::count(lanes[l].alive->begin(), lanes[l].alive->end(), 1));
    total += pending[l];
  }
  const Schema& schema = data.schema();
  RowBatch page(schema.num_attributes(), schema.NumNumeric() > 0);
  for (PageId p = 0; p < data.num_pages() && total > 0; ++p) {
    page.Clear();
    NMRS_RETURN_IF_ERROR(data.ReadPageVia(reader, p, &page));
    for (size_t l = 0; l < lanes.size(); ++l) {
      if (pending[l] == 0) continue;
      PruneContext& ctx = *lanes[l].ctx;
      const std::vector<uint32_t>& rows = *lanes[l].rows;
      std::vector<uint8_t>& live = *lanes[l].alive;
      for (size_t j = 0; j < rows.size(); ++j) {
        if (!live[j]) continue;
        const uint32_t idx = rows[j];
        const RowId x_id = cands.id(idx);
        ctx.SetCandidate(cands.row_values(idx), cands.row_numerics(idx));
        for (size_t r = 0; r < page.size(); ++r) {
          if (page.id(r) == x_id) continue;
          ++stats->pair_tests;
          if (ctx.Prunes(page.row_values(r), page.row_numerics(r),
                         &stats->checks)) {
            live[j] = 0;
            --pending[l];
            --total;
            on_prune(l, j, page, r);
            break;
          }
        }
      }
    }
  }
  return Status::OK();
}

// One query's hint-pass output: for each stashed sensitive row, its first
// base-space pruner in dataset scan order, if it has one. Chunk tasks write
// disjoint rows.
struct PrunerHints {
  size_t m = 0;
  std::vector<uint8_t> found;
  std::vector<ValueId> values;   // m per stashed row
  std::vector<double> numerics;  // m per stashed row; empty without numerics

  void Reset(size_t rows, size_t num_attrs, bool has_numerics) {
    m = num_attrs;
    found.assign(rows, 0);
    values.resize(rows * m);
    numerics.resize(has_numerics ? rows * m : 0);
  }
  void Record(uint32_t idx, const RowBatch& page, size_t r) {
    found[idx] = 1;
    std::copy_n(page.row_values(r), m, values.begin() + idx * m);
    if (!numerics.empty()) {
      std::copy_n(page.row_numerics(r), m, numerics.begin() + idx * m);
    }
  }
  const ValueId* row_values(uint32_t idx) const {
    return values.data() + idx * m;
  }
  const double* row_numerics(uint32_t idx) const {
    return numerics.empty() ? nullptr : numerics.data() + idx * m;
  }
};

// Hint pass over one chunk of stashed rows under the base space.
Status FindBaseHints(const StoredDataset& data, PagedReader* reader,
                     const OverlayExecContext& ctx, const Object& query,
                     const OverlayClassification& cls,
                     const std::vector<uint32_t>& rows, PrunerHints* hints,
                     QueryStats* stats) {
  const QueryDistanceTable table(*ctx.space, data.schema(), query,
                                 ctx.selected);
  PruneContext pctx(*ctx.space, data.schema(), query, ctx.selected, &table);
  std::vector<uint8_t> alive(rows.size(), 1);
  return ScanForPruners(
      data, reader, cls.sensitive, {{&pctx, &rows, &alive}}, stats,
      [&](size_t, size_t j, const RowBatch& page, size_t r) {
        hints->Record(rows[j], page, r);
      });
}

// Re-checks the sensitive candidates of a group of users for one query:
// each hinted candidate first tests its hint under the user's overlaid
// distances, then the candidates still alive share one page-major pass.
// (*alive)[g] is aligned with cls.user_rows[group[g]]; survivors stay 1.
Status RecheckGroup(const StoredDataset& data, PagedReader* reader,
                    const OverlayExecContext& ctx, const Object& query,
                    const std::vector<const MatrixOverlay*>& overlays,
                    const std::vector<size_t>& group,
                    const OverlayClassification& cls, const PrunerHints& hints,
                    std::vector<std::vector<uint8_t>>* alive,
                    QueryStats* stats) {
  // One overlaid (table, context) pair per group user; the contexts keep
  // their patched-column scratch across candidates and pages.
  std::vector<std::unique_ptr<QueryDistanceTable>> tables;
  std::vector<std::unique_ptr<PruneContext>> pctxs;
  std::vector<ScanLane> lanes;
  for (size_t g = 0; g < group.size(); ++g) {
    const size_t u = group[g];
    tables.push_back(std::make_unique<QueryDistanceTable>(
        *ctx.space, data.schema(), query, ctx.selected, overlays[u]));
    pctxs.push_back(std::make_unique<PruneContext>(
        *ctx.space, data.schema(), query, ctx.selected, tables.back().get()));
    PruneContext& pctx = *pctxs.back();
    const std::vector<uint32_t>& rows = cls.user_rows[u];
    std::vector<uint8_t>& live = (*alive)[g];
    live.assign(rows.size(), 1);
    for (size_t j = 0; j < rows.size(); ++j) {
      const uint32_t idx = rows[j];
      if (!hints.found[idx]) continue;
      pctx.SetCandidate(cls.sensitive.row_values(idx),
                        cls.sensitive.row_numerics(idx));
      ++stats->pair_tests;
      if (pctx.Prunes(hints.row_values(idx), hints.row_numerics(idx),
                      &stats->checks)) {
        live[j] = 0;
      }
    }
    lanes.push_back({&pctx, &rows, &live});
  }
  return ScanForPruners(data, reader, cls.sensitive, lanes, stats,
                        [](size_t, size_t, const RowBatch&, size_t) {});
}

// Final rows of (query, user): the base rows minus the user's sensitive
// rows, plus the sensitive candidates that survived the re-check, sorted
// ascending — exactly the overlaid reverse skyline, because invariant rows
// keep their base membership.
std::vector<RowId> MergeOverlayRows(const std::vector<RowId>& base_rows,
                                    const OverlayClassification& cls,
                                    size_t user,
                                    const std::vector<uint8_t>& alive) {
  const std::vector<uint32_t>& rows = cls.user_rows[user];
  NMRS_CHECK_EQ(alive.size(), rows.size());
  std::vector<RowId> sensitive_ids;
  sensitive_ids.reserve(rows.size());
  for (uint32_t idx : rows) sensitive_ids.push_back(cls.sensitive.id(idx));
  std::sort(sensitive_ids.begin(), sensitive_ids.end());

  std::vector<RowId> merged;
  merged.reserve(base_rows.size() + rows.size());
  for (RowId r : base_rows) {
    if (!std::binary_search(sensitive_ids.begin(), sensitive_ids.end(), r)) {
      merged.push_back(r);
    }
  }
  for (size_t j = 0; j < rows.size(); ++j) {
    if (alive[j]) merged.push_back(cls.sensitive.id(rows[j]));
  }
  std::sort(merged.begin(), merged.end());
  return merged;
}

}  // namespace

Status ValidateOverlayUsers(const RSOptions& rs,
                            const std::vector<const MatrixOverlay*>& overlays,
                            const SimilaritySpace& space) {
  NMRS_RETURN_IF_ERROR(rs.resilience.Validate());
  if (rs.overlay != nullptr) {
    return Status::InvalidArgument(
        "RunOverlayBatch: the engine's rs.overlay template must be null — "
        "the per-user overlays come from the overlays argument");
  }
  if (overlays.empty()) {
    return Status::InvalidArgument("RunOverlayBatch: no overlay users");
  }
  for (const MatrixOverlay* o : overlays) {
    if (o == nullptr) {
      return Status::InvalidArgument("RunOverlayBatch: null overlay");
    }
    if (&o->base() != &space) {
      return Status::InvalidArgument(
          "RunOverlayBatch: overlay built over a different base space");
    }
  }
  return Status::OK();
}

Status ClassifyOverlayRows(const OverlayExecContext& ctx,
                           const std::vector<const MatrixOverlay*>& overlays,
                           OverlayClassification* out) {
  NMRS_CHECK(!ctx.selected.empty()) << "pass a resolved selection";
  Timer timer;
  const Schema& schema = ctx.data->schema();
  const size_t m = schema.num_attributes();
  const bool numerics = schema.NumNumeric() > 0;

  out->sensitive = RowBatch(m, numerics);
  out->user_rows.assign(overlays.size(), {});
  out->rows_scanned = 0;

  std::vector<uint8_t> hit(overlays.size());
  NMRS_RETURN_IF_ERROR(ScanOnWorker(
      ctx, 0, &out->io,
      [&](const StoredDataset& data, PagedReader* reader) -> Status {
        RowBatch page(m, numerics);
        for (PageId p = 0; p < data.num_pages(); ++p) {
          page.Clear();
          NMRS_RETURN_IF_ERROR(data.ReadPageVia(reader, p, &page));
          for (size_t i = 0; i < page.size(); ++i) {
            ++out->rows_scanned;
            const ValueId* vals = page.row_values(i);
            bool any = false;
            for (size_t u = 0; u < overlays.size(); ++u) {
              hit[u] = overlays[u] != nullptr &&
                       overlays[u]->RowSensitive(vals, ctx.selected);
              any |= hit[u] != 0;
            }
            if (!any) continue;
            const uint32_t idx = static_cast<uint32_t>(out->sensitive.size());
            out->sensitive.Append(page.id(i), vals, page.row_numerics(i));
            for (size_t u = 0; u < overlays.size(); ++u) {
              if (hit[u]) out->user_rows[u].push_back(idx);
            }
          }
        }
        return Status::OK();
      }));
  out->classify_millis = timer.ElapsedMillis();
  return Status::OK();
}

void RecheckOverlayBatch(const OverlayExecContext& ctx,
                         const std::vector<Object>& queries,
                         const std::vector<const MatrixOverlay*>& overlays,
                         const OverlayClassification& cls,
                         const std::vector<ReverseSkylineResult>& base,
                         std::vector<std::vector<ReverseSkylineResult>>* results,
                         std::vector<Status>* statuses,
                         std::vector<double>* worker_modeled_millis,
                         OverlayRecheckTotals* totals) {
  const Schema& schema = ctx.data->schema();
  ConcurrentIoStats io;
  std::atomic<uint64_t> checks{0};
  std::atomic<uint64_t> pair_tests{0};
  std::mutex status_mu;  // guards statuses[q] overwrites from the tasks
  WaitGroup wg;

  // Runs body(data, reader, &stats) as one pool task on a clean view and
  // charges its work to the totals and to the worker that ran it.
  auto submit = [&](size_t q, auto body) {
    wg.Add(1);
    ctx.pool->Submit([&, q, body] {
      const int w = ctx.pool->CurrentWorkerIndex();
      NMRS_CHECK_GE(w, 0);
      Timer timer;
      QueryStats s;
      Status st = ScanOnWorker(
          ctx, w, &s.io, [&](const StoredDataset& data, PagedReader* reader) {
            return body(data, reader, &s);
          });
      s.compute_millis = timer.ElapsedMillis();
      io.Add(s.io);
      checks.fetch_add(s.checks, std::memory_order_relaxed);
      pair_tests.fetch_add(s.pair_tests, std::memory_order_relaxed);
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(status_mu);
        if ((*statuses)[q].ok()) (*statuses)[q] = st;
      }
      // Only this worker's thread touches its slot.
      (*worker_modeled_millis)[static_cast<size_t>(w)] += s.ResponseMillis();
      wg.Done();
    });
  };

  // ---- 1. Pruner hints, per query, in kHintChunksPerQuery chunks. A hint
  // is shared work, so only rows that two or more users re-check get one;
  // rows in the base answer have no base pruner to find. ----
  std::vector<uint32_t> rechecking_users(cls.sensitive.size(), 0);
  for (const std::vector<uint32_t>& rows : cls.user_rows) {
    for (uint32_t idx : rows) ++rechecking_users[idx];
  }
  std::vector<PrunerHints> hints(queries.size());
  std::vector<std::vector<uint32_t>> hinted(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    if (!(*statuses)[q].ok()) continue;  // base run failed: no answer
    const std::vector<RowId>& base_rows = base[q].rows;
    for (uint32_t idx = 0; idx < cls.sensitive.size(); ++idx) {
      if (rechecking_users[idx] >= 2 &&
          !std::binary_search(base_rows.begin(), base_rows.end(),
                              cls.sensitive.id(idx))) {
        hinted[q].push_back(idx);
      }
    }
    hints[q].Reset(cls.sensitive.size(), schema.num_attributes(),
                   schema.NumNumeric() > 0);
    const size_t chunk =
        (hinted[q].size() + kHintChunksPerQuery - 1) / kHintChunksPerQuery;
    for (size_t lo = 0; lo < hinted[q].size(); lo += chunk) {
      const size_t hi = std::min(hinted[q].size(), lo + chunk);
      submit(q, [&, q, lo, hi](const StoredDataset& data, PagedReader* reader,
                               QueryStats* s) {
        const std::vector<uint32_t> rows(hinted[q].begin() + lo,
                                         hinted[q].begin() + hi);
        return FindBaseHints(data, reader, ctx, queries[q], cls, rows,
                             &hints[q], s);
      });
    }
  }
  wg.Wait();

  // ---- 2. Hinted re-checks: one task per (query, user group). ----
  // Users whose overlay touches no stored row need no re-check: every row
  // is invariant for them, so their answer is the base answer.
  std::vector<size_t> scan_users;
  for (size_t u = 0; u < overlays.size(); ++u) {
    if (!cls.user_rows[u].empty()) scan_users.push_back(u);
  }
  const size_t group_size = std::max<size_t>(1, ctx.overlay_group);
  uint64_t scans = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    if (!(*statuses)[q].ok()) continue;
    for (size_t u = 0; u < overlays.size(); ++u) {
      if (cls.user_rows[u].empty()) {
        (*results)[q][u].rows = base[q].rows;
        (*results)[q][u].stats.result_size = base[q].rows.size();
      }
    }
    for (size_t lo = 0; lo < scan_users.size(); lo += group_size) {
      const size_t hi = std::min(scan_users.size(), lo + group_size);
      ++scans;
      submit(q, [&, q, lo, hi](const StoredDataset& data, PagedReader* reader,
                               QueryStats* s) -> Status {
        const std::vector<size_t> group(scan_users.begin() + lo,
                                        scan_users.begin() + hi);
        std::vector<std::vector<uint8_t>> alive(group.size());
        NMRS_RETURN_IF_ERROR(RecheckGroup(data, reader, ctx, queries[q],
                                          overlays, group, cls, hints[q],
                                          &alive, s));
        for (size_t i = 0; i < group.size(); ++i) {
          ReverseSkylineResult& r = (*results)[q][group[i]];
          r.rows = MergeOverlayRows(base[q].rows, cls, group[i], alive[i]);
          r.stats.result_size = r.rows.size();
        }
        return Status::OK();
      });
    }
  }
  wg.Wait();

  totals->scans = scans;
  totals->checks = checks.load(std::memory_order_relaxed);
  totals->pair_tests = pair_tests.load(std::memory_order_relaxed);
  totals->io = io.Snapshot();
}

}  // namespace nmrs
