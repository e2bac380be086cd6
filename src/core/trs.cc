#include "core/trs.h"

#include <algorithm>
#include <optional>

#include "altree/al_tree.h"
#include "common/sync.h"
#include "common/timer.h"
#include "core/dominance.h"
#include "core/dominance_kernel.h"
#include "core/query_distance_table.h"
#include "core/tree_traversal.h"
#include "data/columnar_batch.h"
#include "sim/matrix_overlay.h"
#include "storage/paged_reader.h"

namespace nmrs {

using internal_tree::BlockChunkBegin;
using internal_tree::FastEntry;
using internal_tree::NumMemoBlocks;
using internal_tree::Phase1Level;
using internal_tree::PrunerMemo;
using internal_tree::TreeQueryContext;
using NodeId = ALTree::NodeId;

namespace {

// The Phase1Level array of TRS phase 1 for one candidate c (Alg. 3 line
// 5): a categorical level reads the matrix column d(., c_a) against
// d(q_a, c_a); a level outside the selected attributes passes through
// (col == nullptr). A numeric level compares conservative bucket bounds
// (paper §6): the farthest a node's bucket can lie from c's bucket against
// the nearest the query's bucket can lie from it, so a path through it is
// strict only when every value pair is. Phase 1 then keeps extra survivors
// but never prunes a reverse-skyline row. The levels point into this
// object, one per chunk.
class CandidateLevels {
 public:
  explicit CandidateLevels(const TreeQueryContext& ctx)
      : ctx_(ctx),
        levels_(ctx.attr_order.size(), {nullptr, 0.0}),
        bounds_(ctx.attr_order.size()) {
    for (size_t l = 0; l < levels_.size(); ++l) {
      const AttrId a = ctx.attr_order[l];
      if (ctx.attr_selected[a] && ctx.buckets[a].has_value()) {
        bounds_[l].resize(ctx.buckets[a]->num_buckets());
      }
    }
  }
  CandidateLevels(const CandidateLevels&) = delete;
  CandidateLevels& operator=(const CandidateLevels&) = delete;

  // `c_values` is indexed by physical attribute.
  const std::vector<Phase1Level>& Bind(const std::vector<ValueId>& c_values) {
    const SimilaritySpace& space = *ctx_.space;
    for (size_t l = 0; l < levels_.size(); ++l) {
      const AttrId a = ctx_.attr_order[l];
      if (!ctx_.attr_selected[a]) continue;
      const ValueId c = c_values[a];
      if (!ctx_.buckets[a].has_value()) {
        levels_[l] = {space.matrix(a).ColumnTo(c),
                      space.CatDist(a, ctx_.query.values[a], c)};
        continue;
      }
      const NumericDissimilarity& nd = space.numeric(a);
      const Interval cb = ctx_.BucketOf(a, c);
      std::vector<double>& col = bounds_[l];
      for (size_t b = 0; b < col.size(); ++b) {
        col[b] = nd.MaxDist(cb, ctx_.BucketOf(a, static_cast<ValueId>(b)));
      }
      levels_[l] = {col.data(),
                    nd.MinDist(cb, ctx_.BucketOf(a, ctx_.query.values[a]))};
    }
    return levels_;
  }

 private:
  const TreeQueryContext& ctx_;
  std::vector<Phase1Level> levels_;
  std::vector<std::vector<double>> bounds_;  // numeric levels: per bucket
};

}  // namespace

StatusOr<ReverseSkylineResult> TreeReverseSkyline(
    const StoredDataset& sorted_data, const SimilaritySpace& space,
    const Object& query, const RSOptions& opts,
    const ExecContext& exec) {
  if (opts.overlay != nullptr && !opts.overlay->empty()) {
    // The tree traversal reads matrix rows directly, so the overlay is
    // evaluated by materializing the patched space once per query (the
    // block algorithms apply the delta natively; see docs/OVERLAYS.md).
    if (&opts.overlay->base() != &space) {
      return Status::InvalidArgument(
          "RSOptions::overlay was built over a different base space");
    }
    SimilaritySpace patched = opts.overlay->BuildPatchedSpace();
    RSOptions materialized = opts;
    materialized.overlay = nullptr;
    return TreeReverseSkyline(sorted_data, patched, query, materialized,
                              exec);
  }
  SimulatedDisk* disk = sorted_data.disk();
  const Schema& schema = sorted_data.schema();
  const size_t m = schema.num_attributes();
  const bool numerics = schema.NumNumeric() > 0;
  if (opts.memory.pages < 2) {
    return Status::InvalidArgument(
        "TRS needs a memory budget of at least 2 pages");
  }

  Timer timer;
  const IoStats io_before = disk->stats();
  disk->InvalidateArmPosition();

  TreeQueryContext ctx =
      internal_tree::MakeTreeContext(space, schema, query, opts);
  PagedReader reader = MakeReader(disk, opts.resilience, exec);
  ReverseSkylineResult result;
  QueryStats& stats = result.stats;

  const size_t page_size = disk->page_size();

  // ---- Phase 1 (Alg. 3 lines 1-7). ----
  Timer phase1_timer;
  FileId scratch_file = disk->CreateFile("trs-scratch");
  RowWriter writer(disk, scratch_file, schema, opts.resilience.checksum_pages);
  // Kernel phase 1 runs only on all attributes, all categorical — exactly
  // when the flat leaf scan below is expressible as gathers; otherwise the
  // tree traversal is kept as-is.
  const bool kernel_p1 = opts.use_kernels && !numerics &&
                         std::ranges::count(ctx.attr_selected, false) == 0;
  std::optional<QueryDistanceTable> kernel_qtable;
  std::vector<AttrId> kernel_selected;
  if (kernel_p1) {
    kernel_selected = ResolveSelectedAttrs(schema, opts.selected_attrs);
    kernel_qtable.emplace(space, schema, query, kernel_selected);
  }
  // Probe-futility memory across phase-1 batches: once a batch's probed
  // candidates escape in the majority, later batches of the same query
  // skip the probe — and the columnar build and kernel setup that feed
  // it — outright, falling back to the plain traversal path. Batches
  // load pages in a fixed order, so the cut is deterministic per
  // configuration, and verdicts are regime-independent either way.
  bool probe_batches = true;
  {
    ALTree tree(schema, ctx.attr_order);
    RowBatch page_rows(m, numerics);
    PageId next_page = 0;
    const uint64_t budget = opts.memory.pages * page_size;
    std::vector<ValueId> c_values(m, 0);
    while (next_page < sorted_data.num_pages()) {
      ++stats.phase1_batches;
      tree.Clear();
      NMRS_RETURN_IF_ERROR(internal_tree::LoadTreeBatch(
          sorted_data, &reader, budget, &next_page, &tree, &page_rows));
      if (opts.order_children_by_descendants) tree.PrepareForSearch();

      std::vector<NodeId> leaves;
      tree.ForEachActiveLeaf([&](NodeId l) { leaves.push_back(l); });
      const size_t num_leaves = leaves.size();
      std::vector<uint8_t> prunable(num_leaves, 0);

      // Kernel phase 1, probe -> traversal hybrid: a short prefix of the
      // active leaves becomes a columnar block and every candidate leaf
      // c starts on the early-aborting scalar probe over it — a leaf
      // with a pruner within a handful of scan rows resolves cheaper
      // than starting a traversal. A probed row either prunes (the probe
      // stops) or survives (it counts toward promotion), so a probe
      // never reads past RSOptions::kernel_promote_rows survivors —
      // which is why a prefix of ~8x promote_rows rows is all the block
      // the probe can ever use, and all that is built. A candidate that
      // survives promote_rows tests, or exhausts a partial prefix
      // without a verdict, escapes to the pruned ALTree traversal
      // instead of a flat block scan: group-level subtree pruning skips
      // most of the block wholesale, which no flat evaluation (scalar or
      // SIMD) can match on the stubborn survivors. (When the prefix
      // covers every leaf — promote_rows huge, or few leaves —
      // exhaustion is a definitive no-pruner verdict, preserving the
      // full-scan accounting of the promote=never regime.) Whether
      // probing pays at all is data-dependent — on value-clustered
      // batches nearly every leaf escapes — so each chunk watches its
      // probed candidates and stops probing when escapes reach a
      // majority past the kProbeTrial mark, and a majority-escaping
      // batch turns probing off for the query's remaining batches (the
      // escape decision depends only on verdicts, keeping the cut
      // deterministic for a given chunking and dispatch-invariant).
      // Verdicts — and therefore survivors, results, and IO — are
      // identical in all regimes: probe and traversal are both exact
      // Definition-1 pruner searches, with "M \ c" realized by skipping
      // c's own leaf in the probe iff it holds a single instance
      // (remaining duplicates still count as pruners) and by
      // FindPrunerFast's self_leaf in the traversal. Probe work surfaces
      // as kernel_scalar_rows; traversals add their group-level check
      // counts to QueryStats::checks as on the scalar path
      // (docs/KERNELS.md). With promote 0 every candidate would escape
      // immediately, so the columnar block is not even built.
      const bool probe_p1 =
          kernel_p1 && opts.kernel_promote_rows > 0 && probe_batches;
      const size_t probe_prefix = static_cast<size_t>(std::min<uint64_t>(
          num_leaves,
          std::max<uint64_t>(128, 8ull * opts.kernel_promote_rows)));
      // The block holds the `probe_prefix` leaves CLOSEST to q, not the
      // first in scan order: leaves similar to q sit at the center of
      // every candidate's dynamic skyline and are by far the likeliest
      // pruners, while sorted leaf order would fill the block with
      // whatever value combinations sort first (usually no pruner of
      // anything). Sorting is by the summed per-level query thresholds
      // with index tie-breaks, so the block — and every verdict and
      // counter downstream — is deterministic.
      ColumnarBatch leaf_cols;
      std::vector<ValueId> all_vals;  // row-major leaf values, reused for cv
      if (probe_p1 && num_leaves > 0) {
        all_vals.resize(num_leaves * m);
        std::vector<double> score(num_leaves, 0.0);
        std::vector<ValueId> lv(m, 0);
        for (size_t li = 0; li < num_leaves; ++li) {
          internal_tree::LeafValues(tree, leaves[li], ctx.attr_order, &lv);
          double s = 0.0;
          for (size_t l = 0; l < m; ++l) {
            const AttrId a = ctx.attr_order[l];
            s += space.CatDist(a, query.values[a], lv[a]);
          }
          score[li] = s;
          for (size_t a = 0; a < m; ++a) all_vals[li * m + a] = lv[a];
        }
        std::vector<uint32_t> ord(num_leaves);
        for (size_t li = 0; li < num_leaves; ++li) {
          ord[li] = static_cast<uint32_t>(li);
        }
        std::partial_sort(ord.begin(), ord.begin() + probe_prefix, ord.end(),
                          [&](uint32_t a, uint32_t b) {
                            if (score[a] != score[b]) {
                              return score[a] < score[b];
                            }
                            return a < b;
                          });
        std::vector<std::vector<ValueId>> columns(
            m, std::vector<ValueId>(probe_prefix));
        std::vector<RowId> leaf_ids(probe_prefix);
        for (size_t k = 0; k < probe_prefix; ++k) {
          for (size_t a = 0; a < m; ++a) {
            columns[a][k] = all_vals[static_cast<size_t>(ord[k]) * m + a];
          }
          leaf_ids[k] = ord[k];
        }
        leaf_cols.BuildFromColumns(probe_prefix, columns, leaf_ids);
      }

      // Checks leaves [begin, end) with chunk-owned scratch and counters
      // (Alg. 3 line 5). Every search only reads `tree`, so chunks share
      // it. A chunk probes leaf_cols first while probe_p1 holds and its
      // probe-futility trial has not condemned the probe.
      auto check_leaves = [&](size_t begin, size_t end, QueryStats* st,
                              size_t* out_trialed, size_t* out_escaped) {
        // Probe-futility trial: once this many candidates have been
        // probed, a chunk whose escapes reach a majority stops probing —
        // the probe rows were pure overhead on top of the traversals
        // they failed to avoid. The check is rolling, not one-shot at
        // the trial boundary: escape rates drift within a batch, and a
        // majority-escaping stretch anywhere means the probe is losing
        // from there on.
        constexpr size_t kProbeTrial = 64;
        bool probing = probe_p1;
        std::optional<PruneContext> kc;
        std::optional<DominanceKernel> kernel;
        if (probing) {
          kc.emplace(space, schema, query, kernel_selected, &*kernel_qtable);
          kernel.emplace(*kc, leaf_cols, opts.kernel_promote_rows);
        }
        CandidateLevels levels(ctx);
        std::vector<FastEntry> stack;
        stack.reserve(256);
        PrunerMemo memo;
        const size_t memo_block = PrunerMemo::BlockSize(num_leaves);
        std::vector<ValueId> cv(m, 0);
        uint64_t unused_pairs = 0, unused_checks = 0;
        size_t trialed = 0, escaped = 0;
        // A partial prefix cannot prove "no pruner anywhere" — only a
        // block covering every leaf makes exhaustion a verdict.
        const bool exhaust_resolves = probe_prefix == num_leaves;
        for (size_t li = begin; li < end; ++li) {
          const NodeId leaf = leaves[li];
          if (li % memo_block == 0) memo.Reset();
          if (probe_p1) {
            // The scoring pass already walked every leaf's values — skip
            // the per-candidate walk up the tree.
            for (size_t a = 0; a < m; ++a) cv[a] = all_vals[li * m + a];
          } else {
            internal_tree::LeafValues(tree, leaf, ctx.attr_order, &cv);
          }
          ++st->pair_tests;
          bool resolved = false;
          bool p = false;
          if (probing) {
            kc->SetCandidate(cv.data(), nullptr);
            kernel->BeginCandidate();
            // Block rows carry original leaf indices as ids, so skipping
            // c's own single-instance leaf works wherever (and whether)
            // it landed in the reordered block.
            const RowId skip = tree.LeafRows(leaf).size() == 1
                                   ? static_cast<RowId>(li)
                                   : kInvalidRowId;
            const DominanceKernel::ProbeResult probe = kernel->ProbeForward(
                0, probe_prefix, skip, &unused_pairs, &unused_checks);
            if (probe == DominanceKernel::ProbeResult::kPruner) {
              resolved = true;
              p = true;
            } else if (probe == DominanceKernel::ProbeResult::kExhausted &&
                       exhaust_resolves) {
              resolved = true;
            } else {
              ++escaped;
            }
            if (++trialed >= kProbeTrial && escaped * 2 > trialed) {
              probing = false;
            }
          }
          if (!resolved) {
            p = internal_tree::FindPrunerFast(tree, levels.Bind(cv), leaf, st,
                                              stack, nullptr, &memo) !=
                ALTree::kInvalidNode;
          }
          prunable[li] = p ? 1 : 0;
        }
        if (kernel.has_value()) {
          st->kernel_checks += kernel->kernel_checks();
          st->kernel_promotions += kernel->promotions();
          st->kernel_scalar_rows += kernel->scalar_rows();
          st->kernel_block_rows += kernel->block_rows();
        }
        *out_trialed += trialed;
        *out_escaped += escaped;
      };

      size_t trialed = 0, escaped = 0;
      if (opts.num_threads <= 1 || num_leaves < 2) {
        check_leaves(0, num_leaves, &stats, &trialed, &escaped);
      } else {
        // Chunks are runs of whole memo blocks, and the memo restarts at
        // every block, so without the probe the totals summed in chunk
        // order equal the sequential counts exactly. The probe-futility
        // trial runs per chunk, so probe counters (never verdicts) depend
        // on the chunking.
        const size_t num_chunks =
            std::min(NumMemoBlocks(num_leaves),
                     static_cast<size_t>(opts.num_threads) * 2);
        std::vector<QueryStats> chunk_stats(num_chunks);
        std::vector<size_t> chunk_trialed(num_chunks, 0);
        std::vector<size_t> chunk_escaped(num_chunks, 0);
        ParallelChunks(exec.executor, opts.num_threads, num_chunks,
                       [&](size_t c) {
                         check_leaves(
                             BlockChunkBegin(num_leaves, num_chunks, c),
                             BlockChunkBegin(num_leaves, num_chunks, c + 1),
                             &chunk_stats[c], &chunk_trialed[c],
                             &chunk_escaped[c]);
                       });
        for (size_t c = 0; c < num_chunks; ++c) {
          stats.MergeFrom(chunk_stats[c]);
          trialed += chunk_trialed[c];
          escaped += chunk_escaped[c];
        }
      }
      // A majority-escaping batch condemns the probe for the rest of
      // the query: later batches skip the columnar build entirely.
      if (probe_p1) probe_batches = escaped * 2 <= trialed;

      // Survivors are spilled in leaf (scan) order regardless of how the
      // checks were executed, keeping the scratch file and its IO
      // byte-identical to the sequential run.
      for (size_t li = 0; li < num_leaves; ++li) {
        if (prunable[li]) continue;
        const NodeId leaf = leaves[li];
        internal_tree::LeafValues(tree, leaf, ctx.attr_order, &c_values);
        const auto rows = tree.LeafRows(leaf);
        for (size_t i = 0; i < rows.size(); ++i) {
          NMRS_RETURN_IF_ERROR(writer.Add(
              rows[i], c_values.data(),
              numerics ? tree.LeafNumerics(leaf, i) : nullptr));
        }
      }
      // Survivors are written out at the end of every batch (paper §4.1).
      NMRS_RETURN_IF_ERROR(writer.FlushPartial());
    }
  }
  NMRS_RETURN_IF_ERROR(writer.Finish());
  stats.phase1_survivors = writer.rows_written();
  stats.phase1_checks = stats.checks;
  stats.phase1_millis = phase1_timer.ElapsedMillis();

  // ---- Phase 2 (Alg. 3 lines 8-16). ----
  Timer phase2_timer;
  StoredDataset survivors(disk, scratch_file, schema, writer.rows_written(),
                          opts.resilience.checksum_pages);
  {
    ALTree tree(schema, ctx.attr_order);
    RowBatch page_rows(m, numerics);
    PageId next_page = 0;
    std::vector<FastEntry> stack;
    stack.reserve(256);
    internal_tree::StreamLevels levels(ctx);
    // One page of the budget is reserved for streaming D (paper §4.1).
    const uint64_t budget = (opts.memory.pages - 1) * page_size;
    while (next_page < survivors.num_pages()) {
      ++stats.phase2_batches;
      tree.Clear();
      NMRS_RETURN_IF_ERROR(internal_tree::LoadTreeBatch(
          survivors, &reader, budget, &next_page, &tree, &page_rows));

      RowBatch d_page(m, numerics);
      for (PageId dp = 0; dp < sorted_data.num_pages(); ++dp) {
        d_page.Clear();
        NMRS_RETURN_IF_ERROR(sorted_data.ReadPageVia(&reader, dp, &d_page));
        // The scan of D is run to completion even if the tree empties —
        // the paper's Alg. 3 performs the full sequential scan per batch,
        // and IO counts are kept faithful to it.
        for (size_t j = 0; j < d_page.size(); ++j) {
          levels.PruneTree(tree, d_page.row_values(j), d_page.row_numerics(j),
                           d_page.id(j), &stats, stack);
        }
      }
      tree.ForEachActiveLeaf([&](NodeId l) {
        for (RowId r : tree.LeafRows(l)) result.rows.push_back(r);
      });
    }
  }
  stats.phase2_checks = stats.checks - stats.phase1_checks;
  stats.phase2_millis = phase2_timer.ElapsedMillis();

  NMRS_RETURN_IF_ERROR(disk->DeleteFile(scratch_file));

  std::sort(result.rows.begin(), result.rows.end());
  stats.result_size = result.rows.size();
  stats.io = disk->stats() - io_before;
  reader.FoldStatsInto(&stats.io);
  stats.modeled_backoff_millis = reader.modeled_backoff_millis();
  stats.compute_millis = timer.ElapsedMillis();
  return result;
}

}  // namespace nmrs
