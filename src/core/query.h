#ifndef NMRS_CORE_QUERY_H_
#define NMRS_CORE_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "data/object.h"
#include "storage/fault_injection.h"
#include "storage/io_stats.h"
#include "storage/memory_budget.h"
#include "storage/paged_reader.h"

namespace nmrs {

class BufferPool;
class MatrixOverlay;
class SegmentStore;
class TaskExecutor;

/// The policy every reverse-skyline algorithm takes: what to compute and
/// how (memory budget, attribute order and subset, kernels, fault
/// survival). The runtime handles a query borrows — executor, page cache,
/// failover replicas, quarantine sink — come separately in an ExecContext.
struct RSOptions {
  /// Working memory for batches, in pages. Naive ignores it (it streams).
  MemoryBudget memory{16};

  /// Attribute subset to run the query on (paper §5.6); empty = all
  /// attributes. Entries are physical AttrIds.
  std::vector<AttrId> selected_attrs;

  /// AL-Tree / sort attribute ordering (physical AttrIds, a permutation of
  /// the schema). Empty = ascending-cardinality heuristic (paper §5.1).
  std::vector<AttrId> attr_order;

  /// TRS ablation switch: push children in ascending-descendant order
  /// (paper Alg. 4 line 8) when true, insertion order when false.
  bool order_children_by_descendants = true;

  /// Intra-query parallelism: threads used for the phase-1 candidate
  /// checks of BRS/SRS/TRS. The default 1 keeps the exact sequential
  /// execution of the paper reproduction — results, check counts, and IO
  /// are bit-identical to the seed implementation. Values > 1 split each
  /// loaded phase-1 batch into chunks of candidates checked concurrently;
  /// results, check totals, and IO stay identical to the sequential run
  /// (candidate checks are independent and survivors are still written in
  /// scan order), only wall-clock changes. The threads run on
  /// ExecContext::executor. See docs/PARALLELISM.md.
  int num_threads = 1;

  /// Fault-survival policy (docs/ROBUSTNESS.md): checksum verification,
  /// transient-retry budget, replica count. One struct instead of loose
  /// fields so algorithms, the batch engine and the CLI stay in sync.
  /// Default == everything off = seed-identical behavior.
  /// `resilience.checksum_pages` is only valid when the dataset — and
  /// therefore this query's scratch spills, which inherit the flag — was
  /// prepared with PrepareOptions::checksum_pages.
  ResiliencePolicy resilience;

  /// Evaluate the pruning condition block-at-a-time through the SIMD
  /// dominance kernels (core/dominance_kernel.h): loaded batches get a
  /// column-major view and each candidate is checked against 32 runs of
  /// identical rows (a distinct row is a run of length 1) per step via
  /// per-attribute gathers from the candidate's matrix column,
  /// with an AVX2 path selected by runtime CPU dispatch and a portable
  /// fallback. Reverse-skyline results are bit-identical to the scalar
  /// path; for Naive/BRS/SRS and the bichromatic block variant the check
  /// and pair-test counts are also reproduced exactly (mask accounting),
  /// while TRS reports its kernel phase-1 work as
  /// QueryStats::kernel_checks instead of tree-group checks. Default on;
  /// false runs the seed scalar loops byte for byte — the equivalence
  /// tests' oracle and the path the paper-figure benches measure. See
  /// docs/KERNELS.md.
  bool use_kernels = true;

  /// Adaptive promotion threshold of the kernel path (docs/KERNELS.md):
  /// each candidate starts on the exact scalar early-aborting loop and
  /// switches to block evaluation only after surviving this many pruner
  /// tests — so candidates pruned by a close neighbour never pay for
  /// whole blocks, and only long scans (where bulk evaluation amortizes)
  /// are promoted. 0 = promote immediately (the always-block behavior of
  /// the original kernels). Any value yields bit-identical results and
  /// check accounting; only the work split between the probe and the
  /// block path moves (QueryStats::kernel_scalar_rows /
  /// kernel_block_rows / kernel_promotions). The default came from the
  /// bench_kernels promote-threshold sweep.
  uint32_t kernel_promote_rows = 16;

  /// Per-user preference overlay (docs/OVERLAYS.md): a sparse delta over
  /// the base space's categorical matrices. When set (and non-empty) the
  /// query is evaluated against the *overlaid* space — bit-identical rows
  /// to rebuilding a patched SimilaritySpace and running without an
  /// overlay. Naive/BRS/SRS (and the bichromatic block variant) apply the
  /// delta natively through the QueryDistanceTable + PruneContext patched
  /// arrays; the tree variants materialize the patched space once per
  /// query (RunReverseSkyline does this under the covers). The overlay
  /// must have been built over the space passed to the algorithm, and is
  /// borrowed for the duration of the query.
  const MatrixOverlay* overlay = nullptr;
};

/// The runtime handles one query borrows from whoever runs it, kept apart
/// from the policy in RSOptions. The batch engine fills one per (query,
/// shard) task; a standalone call takes the default: no executor, no page
/// cache, no segment store, no failover replicas, no quarantine sink. None
/// of them changes a result row. Every handle is borrowed and must outlive
/// the query.
struct ExecContext {
  /// Hosts the extra phase-1 threads when RSOptions::num_threads > 1. When
  /// null, temporary std::threads are spawned.
  TaskExecutor* executor = nullptr;

  /// Buffer-pool page cache (docs/CACHING.md) over this dataset's base
  /// disk. Reads of the frozen base files go through it: hits are served
  /// from memory and only misses are charged to the disk, with hit, miss
  /// and eviction counts folded into QueryStats::io. Null = seed-identical
  /// IO.
  BufferPool* buffer_pool = nullptr;

  /// Columnar segments of the frozen base file's pages, shared by the
  /// queries of one engine batch (data/segment_store.h). BRS and SRS on
  /// the kernel path read each page through it: the read is charged as
  /// always, and the decode and transpose are done once per batch instead
  /// of once per read. Null = each read decodes into a query-local
  /// segment. Changes no counter of QueryStats.
  SegmentStore* segments = nullptr;

  /// Failover replicas of the frozen base files, in replica order (element
  /// r-1 serves replica r; the disk the algorithm runs over is replica 0).
  /// Only files with id < failover_limit fail over (scratch spills exist
  /// on the primary view only).
  std::vector<SimulatedDisk*> failover_disks;
  FileId failover_limit = PagedReaderOptions::kNoFailoverLimit;

  /// Where pages every replica failed on are reported. Null = not
  /// reported (QueryStats::io still counts them).
  QuarantineLog* quarantine = nullptr;
};

/// The reader a query reads `disk` through: checksum verification and the
/// retry budget from `policy`, the page cache, failover replicas and
/// quarantine sink from `ctx`. Every algorithm and engine stage builds its
/// readers here, so fault handling and failover behave the same
/// everywhere.
inline PagedReader MakeReader(SimulatedDisk* disk,
                              const ResiliencePolicy& policy,
                              const ExecContext& ctx = {}) {
  PagedReaderOptions r;
  r.verify_checksums = policy.checksum_pages;
  r.retry = policy.retry;
  r.quarantine = ctx.quarantine;
  r.failover = ctx.failover_disks;
  r.failover_limit = ctx.failover_limit;
  return PagedReader(disk, ctx.buffer_pool, std::move(r));
}

/// Everything the paper measures, per query.
struct QueryStats {
  /// Attribute-level pruning-condition evaluations ("checks", paper
  /// Table 3). One check = one comparison of d(y,x) against d(q,x) on a
  /// single attribute (or its group-level / bucket-level analogue).
  uint64_t checks = 0;

  /// Breakdown of `checks` by phase (phase1_checks + phase2_checks ==
  /// checks for the two-phase algorithms; Naive reports all under
  /// phase1_checks).
  uint64_t phase1_checks = 0;
  uint64_t phase2_checks = 0;

  /// Candidate-pruner pair tests begun (each costs >= 1 check).
  uint64_t pair_tests = 0;

  /// Attribute lanes evaluated by the block dominance kernels
  /// (RSOptions::use_kernels): block width x attributes processed,
  /// including lanes the early-aborting scalar loop would have skipped.
  /// Zero when kernels are off. For Naive/BRS/SRS/bichromatic-block this
  /// is extra instrumentation on top of the exactly-reproduced `checks`;
  /// for TRS phase 1 it *replaces* the tree-group check accounting (see
  /// docs/KERNELS.md).
  uint64_t kernel_checks = 0;

  /// Adaptive kernel-dispatch telemetry (RSOptions::kernel_promote_rows;
  /// zero when kernels are off). Candidates promoted from the scalar
  /// probe to block evaluation, rows evaluated by the probe, and rows
  /// evaluated by block windows. Dispatch-independent: the AVX2 and
  /// portable paths report identical values.
  uint64_t kernel_promotions = 0;
  uint64_t kernel_scalar_rows = 0;
  uint64_t kernel_block_rows = 0;

  uint64_t phase1_batches = 0;
  uint64_t phase1_survivors = 0;  // |R| written between phases
  uint64_t phase2_batches = 0;

  /// Page IO charged to this query (excludes pre-processing sort).
  IoStats io;

  double phase1_millis = 0;
  double phase2_millis = 0;
  double compute_millis = 0;  // total wall time of the algorithm

  /// Modeled milliseconds spent in retry backoff (RetryPolicy). Charged as
  /// model time, never slept, so fault runs stay wall-clock independent.
  double modeled_backoff_millis = 0;

  uint64_t result_size = 0;

  /// Response time = computation + modeled disk latency (the simulated
  /// disk transfers pages memory-to-memory, so modeled IO time is added)
  /// + modeled retry backoff.
  double ResponseMillis(const IoCostModel& model = {}) const {
    return compute_millis + model.EstimateMillis(io) + modeled_backoff_millis;
  }

  /// Folds another query-fragment's counters into this one: all counts, IO
  /// and time fields are summed. `result_size` is NOT touched — fragments
  /// of one logical query (e.g. its per-shard runs) each report their local
  /// result size, and only the merger knows the final one. The sharded
  /// executor merges per-shard and exchange-phase stats with this.
  void MergeFrom(const QueryStats& o) {
    checks += o.checks;
    phase1_checks += o.phase1_checks;
    phase2_checks += o.phase2_checks;
    pair_tests += o.pair_tests;
    kernel_checks += o.kernel_checks;
    kernel_promotions += o.kernel_promotions;
    kernel_scalar_rows += o.kernel_scalar_rows;
    kernel_block_rows += o.kernel_block_rows;
    phase1_batches += o.phase1_batches;
    phase1_survivors += o.phase1_survivors;
    phase2_batches += o.phase2_batches;
    io += o.io;
    phase1_millis += o.phase1_millis;
    phase2_millis += o.phase2_millis;
    compute_millis += o.compute_millis;
    modeled_backoff_millis += o.modeled_backoff_millis;
  }

  std::string ToString() const;
};

/// A reverse-skyline answer: original RowIds (ascending) plus stats.
struct ReverseSkylineResult {
  std::vector<RowId> rows;
  QueryStats stats;
};

}  // namespace nmrs

#endif  // NMRS_CORE_QUERY_H_
