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

using internal_tree::FastEntry;
using internal_tree::Phase1Level;
using internal_tree::Phase2Level;
using internal_tree::TraversalEntry;
using internal_tree::TreeQueryContext;
using NodeId = ALTree::NodeId;

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
  // Kernel phase 1 runs on the fast path only (all attributes, all
  // categorical — exactly when the flat leaf scan below is expressible as
  // gathers); otherwise the tree traversal is kept as-is.
  const bool kernel_p1 = opts.use_kernels && ctx.fast_path;
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
    std::vector<double> rhs(m, 0.0);
    std::vector<TraversalEntry> stack;
    stack.reserve(256);
    std::vector<FastEntry> fast_stack;
    fast_stack.reserve(256);
    std::vector<Phase1Level> p1_levels(m);
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

      // Checks leaves [begin, end) against `t` (which must carry the same
      // structure as `tree`), with caller-owned scratch and counters. The
      // per-leaf work only TempRemoves/TempRestores the leaf under test,
      // so chunks run on private tree copies without interfering.
      auto check_leaves = [&](ALTree& t, size_t begin, size_t end,
                              QueryStats* st,
                              std::vector<ValueId>& c_vals,
                              std::vector<double>& c_rhs,
                              std::vector<TraversalEntry>& t_stack,
                              std::vector<FastEntry>& t_fast_stack,
                              std::vector<Phase1Level>& levels) {
        for (size_t li = begin; li < end; ++li) {
          const NodeId leaf = leaves[li];
          internal_tree::LeafValues(t, leaf, ctx.attr_order, &c_vals);
          // Remove one instance of c so it cannot prune itself (Alg. 3
          // line 5, "M \ c"); remaining duplicates still count as pruners.
          t.TempRemoveLeaf(leaf);
          ++st->pair_tests;
          bool p;
          if (ctx.fast_path) {
            for (size_t l = 0; l < m; ++l) {
              const AttrId a = ctx.attr_order[l];
              levels[l].col = space.matrix(a).ColumnTo(c_vals[a]);
              levels[l].rhs = ctx.q_row_by_level[l][c_vals[a]];
            }
            p = internal_tree::FindPrunerFast(t, levels, ALTree::kInvalidNode,
                                              st, t_fast_stack) !=
                ALTree::kInvalidNode;
          } else {
            internal_tree::ComputeRhs(ctx, c_vals, &c_rhs);
            p = internal_tree::IsPrunable(t, ctx, c_vals, c_rhs, st,
                                          t_stack);
          }
          t.TempRestore(leaf);
          prunable[li] = p ? 1 : 0;
        }
      };

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
      // deterministic and dispatch-invariant). Verdicts — and therefore
      // survivors, results, and IO — are identical in all regimes:
      // probe and traversal are both exact Definition-1 pruner
      // searches, with "M \ c" realized by skipping c's own leaf in the
      // probe iff it holds a single instance (remaining duplicates still
      // count as pruners) and by TempRemoveLeaf in the traversal. Probe
      // work surfaces as kernel_scalar_rows; traversals add their
      // group-level check counts to QueryStats::checks as on the scalar
      // path (docs/KERNELS.md). With promote 0 every candidate would
      // escape immediately, so the columnar block is not even built.
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
            s += ctx.q_row_by_level[l][lv[ctx.attr_order[l]]];
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
      // Probes leaf_cols for the cheap candidates and escapes to the
      // traversal of `t` for the promoted ones; TempRemoveLeaf mutates,
      // so parallel chunks pass private tree copies like the scalar path.
      auto check_leaves_kernel = [&](ALTree& t, size_t begin, size_t end,
                                     QueryStats* st,
                                     std::vector<FastEntry>& t_fast_stack,
                                     std::vector<Phase1Level>& levels,
                                     size_t* out_trialed,
                                     size_t* out_escaped) {
        // Probe-futility trial: once this many candidates have been
        // probed, a chunk whose escapes reach a majority stops probing —
        // the probe rows were pure overhead on top of the traversals
        // they failed to avoid. The check is rolling, not one-shot at
        // the trial boundary: escape rates drift within a batch, and a
        // majority-escaping stretch anywhere means the probe is losing
        // from there on.
        constexpr size_t kProbeTrial = 64;
        PruneContext kc(space, schema, query, kernel_selected,
                        &*kernel_qtable);
        DominanceKernel kernel(kc, leaf_cols, opts.kernel_promote_rows);
        std::vector<ValueId> cv(m, 0);
        uint64_t unused_pairs = 0, unused_checks = 0;
        bool probing = true;
        size_t trialed = 0, escaped = 0;
        // A partial prefix cannot prove "no pruner anywhere" — only a
        // block covering every leaf makes exhaustion a verdict.
        const bool exhaust_resolves = probe_prefix == num_leaves;
        for (size_t li = begin; li < end; ++li) {
          const NodeId leaf = leaves[li];
          // The scoring pass already walked every leaf's values — skip
          // the per-candidate walk up the tree.
          for (size_t a = 0; a < m; ++a) cv[a] = all_vals[li * m + a];
          ++st->pair_tests;
          bool resolved = false;
          bool p = false;
          if (probing) {
            kc.SetCandidate(cv.data(), nullptr);
            kernel.BeginCandidate();
            // Block rows carry original leaf indices as ids, so skipping
            // c's own single-instance leaf works wherever (and whether)
            // it landed in the reordered block.
            const RowId skip = t.LeafRows(leaf).size() == 1
                                   ? static_cast<RowId>(li)
                                   : kInvalidRowId;
            const DominanceKernel::ProbeResult probe = kernel.ProbeForward(
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
            for (size_t l = 0; l < m; ++l) {
              const AttrId a = ctx.attr_order[l];
              levels[l].col = space.matrix(a).ColumnTo(cv[a]);
              levels[l].rhs = ctx.q_row_by_level[l][cv[a]];
            }
            t.TempRemoveLeaf(leaf);
            p = internal_tree::FindPrunerFast(t, levels, ALTree::kInvalidNode,
                                              st, t_fast_stack) !=
                ALTree::kInvalidNode;
            t.TempRestore(leaf);
          }
          prunable[li] = p ? 1 : 0;
        }
        st->kernel_checks += kernel.kernel_checks();
        st->kernel_promotions += kernel.promotions();
        st->kernel_scalar_rows += kernel.scalar_rows();
        st->kernel_block_rows += kernel.block_rows();
        *out_trialed += trialed;
        *out_escaped += escaped;
      };

      if (probe_p1) {
        size_t trialed = 0, escaped = 0;
        if (opts.num_threads <= 1 || num_leaves < 2) {
          check_leaves_kernel(tree, 0, num_leaves, &stats, fast_stack,
                              p1_levels, &trialed, &escaped);
        } else {
          const size_t num_chunks = std::min(
              num_leaves, static_cast<size_t>(opts.num_threads) * 2);
          std::vector<QueryStats> chunk_stats(num_chunks);
          std::vector<size_t> chunk_trialed(num_chunks, 0);
          std::vector<size_t> chunk_escaped(num_chunks, 0);
          ParallelChunks(exec.executor, opts.num_threads, num_chunks,
                         [&](size_t c) {
                           ALTree chunk_tree = tree;
                           std::vector<FastEntry> cf;
                           cf.reserve(256);
                           std::vector<Phase1Level> cl(m);
                           check_leaves_kernel(
                               chunk_tree,
                               ChunkBegin(num_leaves, num_chunks, c),
                               ChunkBegin(num_leaves, num_chunks, c + 1),
                               &chunk_stats[c], cf, cl, &chunk_trialed[c],
                               &chunk_escaped[c]);
                         });
          for (size_t c = 0; c < num_chunks; ++c) {
            const QueryStats& cs = chunk_stats[c];
            stats.pair_tests += cs.pair_tests;
            stats.checks += cs.checks;
            stats.kernel_checks += cs.kernel_checks;
            stats.kernel_promotions += cs.kernel_promotions;
            stats.kernel_scalar_rows += cs.kernel_scalar_rows;
            stats.kernel_block_rows += cs.kernel_block_rows;
            trialed += chunk_trialed[c];
            escaped += chunk_escaped[c];
          }
        }
        // A majority-escaping batch condemns the probe for the rest of
        // the query: later batches take the scalar dispatch below and
        // skip the columnar build entirely.
        probe_batches = escaped * 2 <= trialed;
      } else if (opts.num_threads <= 1 || num_leaves < 2) {
        check_leaves(tree, 0, num_leaves, &stats, c_values, rhs, stack,
                     fast_stack, p1_levels);
      } else {
        // Each chunk checks its leaves against a private copy of the tree
        // (TempRemove mutates descendant counts along the leaf's path).
        // Per-leaf checks are independent, so totals summed in chunk order
        // equal the sequential counts exactly.
        const size_t num_chunks = std::min(
            num_leaves, static_cast<size_t>(opts.num_threads) * 2);
        std::vector<QueryStats> chunk_stats(num_chunks);
        ParallelChunks(
            exec.executor, opts.num_threads, num_chunks, [&](size_t c) {
              ALTree chunk_tree = tree;
              std::vector<ValueId> cv(m, 0);
              std::vector<double> cr(m, 0.0);
              std::vector<TraversalEntry> cs;
              cs.reserve(256);
              std::vector<FastEntry> cf;
              cf.reserve(256);
              std::vector<Phase1Level> cl(m);
              check_leaves(chunk_tree, ChunkBegin(num_leaves, num_chunks, c),
                           ChunkBegin(num_leaves, num_chunks, c + 1),
                           &chunk_stats[c], cv, cr, cs, cf, cl);
            });
        for (const QueryStats& cs : chunk_stats) {
          stats.pair_tests += cs.pair_tests;
          stats.checks += cs.checks;
        }
      }

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
    std::vector<TraversalEntry> stack;
    stack.reserve(256);
    std::vector<FastEntry> fast_stack;
    fast_stack.reserve(256);
    std::vector<Phase2Level> p2_levels(m);
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
          if (ctx.fast_path) {
            const ValueId* e = d_page.row_values(j);
            for (size_t l = 0; l < m; ++l) {
              const AttrId a = ctx.attr_order[l];
              p2_levels[l].erow = space.matrix(a).RowFrom(e[a]);
              p2_levels[l].qrow = ctx.q_row_by_level[l];
            }
            internal_tree::PruneTreeFast(tree, p2_levels, d_page.id(j),
                                         &stats, fast_stack);
          } else {
            internal_tree::PruneTree(tree, ctx, d_page.row_values(j),
                                     d_page.row_numerics(j), d_page.id(j),
                                     &stats, stack);
          }
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
