#include "exec/overlay_exec.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <deque>
#include <optional>

#include "common/check.h"
#include "common/sync.h"
#include "common/timer.h"
#include "core/dominance.h"
#include "core/query_distance_table.h"
#include "core/tree_traversal.h"
#include "sim/matrix_overlay.h"

namespace nmrs {
namespace {

// Hint-pass tasks per query. Fixed rather than derived from the pool size,
// so the hint pass reads the same pages whatever the worker count.
constexpr size_t kHintChunksPerQuery = 4;

// One query's hint-pass output: for each stashed sensitive row, the first
// base-space pruner a search of the shard indexes meets, if it has one.
// Chunk tasks write disjoint rows.
struct PrunerHints {
  size_t m = 0;
  std::vector<uint8_t> found;
  std::vector<ValueId> values;          // m per stashed row
  std::vector<const double*> numerics;  // per stashed row: into the index

  void Reset(size_t rows, size_t num_attrs) {
    m = num_attrs;
    found.assign(rows, 0);
    values.resize(rows * m);
    numerics.assign(rows, nullptr);
  }
  // The pruner IndexLevels::FindPruner returned: its leaf's values, and with
  // numerics the exact values of the entry `exact` names; `scratch` holds
  // m values.
  void RecordLeaf(uint32_t idx, const ALTree& index, ALTree::NodeId leaf,
                  const internal_tree::ExactLeaves* exact,
                  std::vector<ValueId>* scratch) {
    found[idx] = 1;
    internal_tree::LeafValues(index, leaf, index.attr_order(), scratch);
    std::copy_n(scratch->begin(), m, values.begin() + idx * m);
    if (exact != nullptr) {
      numerics[idx] = index.LeafNumerics(leaf, exact->entry);
    }
  }
  const ValueId* row_values(uint32_t idx) const {
    return values.data() + idx * m;
  }
  const double* row_numerics(uint32_t idx) const { return numerics[idx]; }
};

// ctx.indexes searched tree by tree in shard order, up to the first
// pruner. A row has a leaf only in the tree that holds it, so a search
// skips exactly the candidate's instance. One IndexLevels per tree.
struct ShardedSearch {
  explicit ShardedSearch(const OverlayExecContext& ctx) : ctx(ctx) {
    for (const ShardTree& t : ctx.indexes) {
      levels.emplace_back(*t.tree, ctx.selected);
    }
  }

  // The leaf of the first pruner of `pctx`'s candidate, row `id`, or
  // kInvalidNode; `tree` is then the tree it sits in.
  ALTree::NodeId Find(const PruneContext& pctx, RowId id, QueryStats* stats) {
    for (tree = 0; tree < levels.size(); ++tree) {
      const std::span<const ALTree::NodeId> row_leaf =
          ctx.indexes[tree].row_leaf;
      const ALTree::NodeId leaf = levels[tree].FindPruner(
          pctx, id, id < row_leaf.size() ? row_leaf[id] : ALTree::kInvalidNode,
          stats, stack);
      if (leaf != ALTree::kInvalidNode) return leaf;
    }
    return ALTree::kInvalidNode;
  }

  const OverlayExecContext& ctx;
  std::deque<internal_tree::IndexLevels> levels;
  std::vector<internal_tree::FastEntry> stack;
  size_t tree = 0;
};

// Hint pass over one chunk of stashed rows under the base space `table`:
// one search per row.
void FindBaseHints(const OverlayExecContext& ctx, const Object& query,
                   const QueryDistanceTable& table,
                   const OverlayClassification& cls,
                   std::span<const uint32_t> rows, PrunerHints* hints,
                   QueryStats* stats) {
  const Schema& schema = ctx.data->schema();
  PruneContext pctx(*ctx.space, schema, query, ctx.selected, &table);
  ShardedSearch search(ctx);
  std::vector<ValueId> scratch(schema.num_attributes());
  for (uint32_t idx : rows) {
    pctx.SetCandidate(cls.sensitive.row_values(idx),
                      cls.sensitive.row_numerics(idx));
    ++stats->pair_tests;
    const ALTree::NodeId leaf =
        search.Find(pctx, cls.sensitive.id(idx), stats);
    if (leaf != ALTree::kInvalidNode) {
      hints->RecordLeaf(idx, *ctx.indexes[search.tree].tree, leaf,
                        search.levels[search.tree].exact(), &scratch);
    }
  }
}

// Re-checks the sensitive candidates of a group of users for one query:
// each hinted candidate first tests its hint under the user's overlaid
// distances, and a candidate without a hint, or whose hint fails, is
// decided by one search under the same context. (*alive)[g]
// is aligned with cls.user_rows[group[g]]; survivors stay 1.
void RecheckGroup(const OverlayExecContext& ctx, const Object& query,
                  const std::vector<const MatrixOverlay*>& overlays,
                  const std::vector<size_t>& group,
                  const OverlayClassification& cls, const PrunerHints& hints,
                  std::vector<std::vector<uint8_t>>* alive,
                  QueryStats* stats) {
  const Schema& schema = ctx.data->schema();
  ShardedSearch search(ctx);
  for (size_t g = 0; g < group.size(); ++g) {
    const size_t u = group[g];
    // The user's overlaid table patches each touched column once.
    const QueryDistanceTable table(*ctx.space, schema, query, ctx.selected,
                                   overlays[u]);
    PruneContext pctx(*ctx.space, schema, query, ctx.selected, &table);
    const std::vector<uint32_t>& rows = cls.user_rows[u];
    std::vector<uint8_t>& live = (*alive)[g];
    live.assign(rows.size(), 1);
    for (size_t j = 0; j < rows.size(); ++j) {
      const uint32_t idx = rows[j];
      pctx.SetCandidate(cls.sensitive.row_values(idx),
                        cls.sensitive.row_numerics(idx));
      if (hints.found[idx]) {
        ++stats->pair_tests;
        if (pctx.Prunes(hints.row_values(idx), hints.row_numerics(idx),
                        &stats->checks)) {
          live[j] = 0;
          continue;
        }
      }
      ++stats->pair_tests;
      if (search.Find(pctx, cls.sensitive.id(idx), stats) !=
          ALTree::kInvalidNode) {
        live[j] = 0;
      }
    }
  }
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

std::vector<ALTree::NodeId> IndexRowLeaves(const ALTree& index,
                                           const LeafTable& table) {
  std::vector<ALTree::NodeId> row_leaf;
  row_leaf.reserve(index.Descendants(ALTree::kRootId));
  for (const ALTree::NodeId leaf : table.leaves) {
    for (RowId r : index.LeafRows(leaf)) {
      if (r >= row_leaf.size()) row_leaf.resize(r + 1, ALTree::kInvalidNode);
      row_leaf[r] = leaf;
    }
  }
  return row_leaf;
}

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

  // masks[i].bits[v * words, (v + 1) * words): the users whose overlay
  // touches column v of selected categorical attribute masks[i].attr, one
  // bit per user. Attributes no overlay touches get no mask.
  struct ColumnMasks {
    AttrId attr;
    std::vector<uint64_t> bits;
  };
  const size_t words = (overlays.size() + 63) / 64;
  std::vector<ColumnMasks> masks;
  for (AttrId a : ctx.selected) {
    if (ctx.space->IsNumeric(a)) continue;
    const size_t card = ctx.space->Cardinality(a);
    ColumnMasks mask{a, std::vector<uint64_t>(card * words, 0)};
    bool touched = false;
    for (size_t u = 0; u < overlays.size(); ++u) {
      if (overlays[u] == nullptr || !overlays[u]->TouchesAttr(a)) continue;
      for (ValueId v = 0; v < card; ++v) {
        if (!overlays[u]->TouchesColumn(a, v)) continue;
        mask.bits[v * words + u / 64] |= uint64_t{1} << (u % 64);
        touched = true;
      }
    }
    if (touched) masks.push_back(std::move(mask));
  }

  // One pass on worker 0's clean view of the base file.
  DiskView* view = ctx.replicas->view(0, 0);
  const StoredDataset& base = *ctx.data;
  const StoredDataset data(view, base.file(), schema, base.num_rows(),
                           base.checksum_pages());
  PagedReader reader = MakeReader(view, ctx.resilience);
  const IoStats before = ctx.replicas->WorkerStats(0);
  std::vector<uint64_t> hit(words);
  RowBatch page(m, numerics);
  Status st;
  for (PageId p = 0; p < data.num_pages() && st.ok(); ++p) {
    page.Clear();
    st = data.ReadPageVia(&reader, p, &page);
    if (!st.ok()) break;
    for (size_t i = 0; i < page.size(); ++i) {
      ++out->rows_scanned;
      const ValueId* vals = page.row_values(i);
      std::fill(hit.begin(), hit.end(), 0);
      for (const ColumnMasks& mask : masks) {
        const uint64_t* bits = mask.bits.data() + vals[mask.attr] * words;
        for (size_t w = 0; w < words; ++w) hit[w] |= bits[w];
      }
      if (std::all_of(hit.begin(), hit.end(),
                      [](uint64_t b) { return b == 0; })) {
        continue;
      }
      const uint32_t idx = static_cast<uint32_t>(out->sensitive.size());
      out->sensitive.Append(page.id(i), vals, page.row_numerics(i));
      for (size_t w = 0; w < words; ++w) {
        for (uint64_t b = hit[w]; b != 0; b &= b - 1) {
          const size_t u = w * 64 + std::countr_zero(b);
          out->user_rows[u].push_back(idx);
        }
      }
    }
  }
  out->io = ctx.replicas->WorkerStats(0) - before;
  reader.FoldStatsInto(&out->io);
  NMRS_RETURN_IF_ERROR(st);
  out->classify_millis = timer.ElapsedMillis();
  return Status::OK();
}

void RecheckOverlayBatch(const OverlayExecContext& ctx,
                         const std::vector<Object>& queries,
                         const std::vector<const MatrixOverlay*>& overlays,
                         const OverlayClassification& cls,
                         const std::vector<ReverseSkylineResult>& base,
                         std::vector<std::vector<ReverseSkylineResult>>* results,
                         const std::vector<Status>& statuses,
                         std::vector<double>* worker_modeled_millis,
                         OverlayRecheckTotals* totals) {
  const Schema& schema = ctx.data->schema();
  std::atomic<uint64_t> checks{0};
  std::atomic<uint64_t> pair_tests{0};
  WaitGroup wg;

  // Runs body(&stats) as one pool task and charges its work to the totals
  // and to the worker that ran it.
  auto submit = [&](auto body) {
    wg.Add(1);
    ctx.pool->Submit([&, body] {
      const int w = ctx.pool->CurrentWorkerIndex();
      NMRS_CHECK_GE(w, 0);
      Timer timer;
      QueryStats s;
      body(&s);
      s.compute_millis = timer.ElapsedMillis();
      checks.fetch_add(s.checks, std::memory_order_relaxed);
      pair_tests.fetch_add(s.pair_tests, std::memory_order_relaxed);
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
  std::vector<std::optional<QueryDistanceTable>> base_tables(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    if (!statuses[q].ok()) continue;  // base run failed: no answer
    base_tables[q].emplace(*ctx.space, schema, queries[q], ctx.selected);
    const std::vector<RowId>& base_rows = base[q].rows;
    for (uint32_t idx = 0; idx < cls.sensitive.size(); ++idx) {
      if (rechecking_users[idx] >= 2 &&
          !std::binary_search(base_rows.begin(), base_rows.end(),
                              cls.sensitive.id(idx))) {
        hinted[q].push_back(idx);
      }
    }
    hints[q].Reset(cls.sensitive.size(), schema.num_attributes());
    const size_t chunk =
        (hinted[q].size() + kHintChunksPerQuery - 1) / kHintChunksPerQuery;
    for (size_t lo = 0; lo < hinted[q].size(); lo += chunk) {
      const size_t hi = std::min(hinted[q].size(), lo + chunk);
      submit([&, q, lo, hi](QueryStats* s) {
        FindBaseHints(ctx, queries[q], *base_tables[q], cls,
                      std::span(hinted[q]).subspan(lo, hi - lo), &hints[q],
                      s);
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
  uint64_t scans = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    if (!statuses[q].ok()) continue;
    for (size_t u = 0; u < overlays.size(); ++u) {
      if (cls.user_rows[u].empty()) {
        (*results)[q][u].rows = base[q].rows;
        (*results)[q][u].stats.result_size = base[q].rows.size();
      }
    }
    for (size_t lo = 0; lo < scan_users.size(); lo += kOverlayGroup) {
      const size_t hi = std::min(scan_users.size(), lo + kOverlayGroup);
      ++scans;
      submit([&, q, lo, hi](QueryStats* s) {
        const std::vector<size_t> group(scan_users.begin() + lo,
                                        scan_users.begin() + hi);
        std::vector<std::vector<uint8_t>> alive(group.size());
        RecheckGroup(ctx, queries[q], overlays, group, cls, hints[q], &alive,
                     s);
        for (size_t i = 0; i < group.size(); ++i) {
          ReverseSkylineResult& r = (*results)[q][group[i]];
          r.rows = MergeOverlayRows(base[q].rows, cls, group[i], alive[i]);
          r.stats.result_size = r.rows.size();
        }
      });
    }
  }
  wg.Wait();

  totals->scans = scans;
  totals->checks = checks.load(std::memory_order_relaxed);
  totals->pair_tests = pair_tests.load(std::memory_order_relaxed);
}

}  // namespace nmrs
