#ifndef NMRS_EXEC_QUERY_ENGINE_H_
#define NMRS_EXEC_QUERY_ENGINE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "core/pipeline.h"
#include "core/query.h"
#include "data/object.h"
#include "exec/engine_options.h"
#include "exec/thread_pool.h"
#include "sim/similarity_space.h"
#include "storage/buffer_pool.h"
#include "storage/disk_view.h"
#include "storage/fault_injection.h"
#include "storage/io_stats.h"
#include "storage/replica_set.h"

namespace nmrs {

// The executor options vocabulary (EngineOptions and the QueryEngineOptions
// alias) lives in exec/engine_options.h, shared with the sharded engine and
// the Database front door.

/// Outcome of one RunBatch call.
struct BatchResult {
  /// results[i] answers queries[i]. Without a cache, per-query stats are
  /// identical to what a sequential RunReverseSkyline of that query would
  /// report. With a shared cache (cache_pages > 0) the *rows* are still
  /// identical, but which query gets charged a miss depends on who touched
  /// the page first, so per-query IO becomes interleaving-dependent; only
  /// aggregate invariants survive (see docs/CACHING.md).
  std::vector<ReverseSkylineResult> results;

  /// statuses[i] is the outcome of queries[i]. On failure, results[i]
  /// holds no rows but still carries the partial IO the query charged
  /// before dying (its share of batch cost, folded into total_io too).
  std::vector<Status> statuses;

  /// True iff every query succeeded.
  bool ok() const {
    for (const Status& s : statuses) {
      if (!s.ok()) return false;
    }
    return true;
  }

  /// The lowest-index failure, or OK if none — the status the legacy
  /// fail-fast API would have returned.
  Status first_error() const {
    for (const Status& s : statuses) {
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  size_t num_failed() const {
    size_t n = 0;
    for (const Status& s : statuses) n += s.ok() ? 0 : 1;
    return n;
  }

  /// Queries that failed a faulty run and succeeded on a clean-view re-run
  /// (QueryEngineOptions::max_query_retries).
  uint64_t queries_retried = 0;

  /// Shared-scan execution counters (QueryEngineOptions::shared_scan; all
  /// zero when it is off or every group fell back to per-query runs).
  /// `shared_scan_groups` = query groups that ran phase 1 through one
  /// shared pass; `shared_scan_batches` = memory-sized batches those passes
  /// loaded (each feeding every query of its group); `shared_io` = the
  /// shared passes' page IO, reported here once instead of Q times in
  /// per-query stats, and included in total_io. Under shared scans
  /// per-query QueryStats::io covers only that query's own scratch spills
  /// and phase-2 scan, so sum(results[i].stats.io) + shared_io ==
  /// total_io.
  uint64_t shared_scan_groups = 0;
  uint64_t shared_scan_batches = 0;
  IoStats shared_io;

  /// Pages any query in this batch gave up on (kDataLoss / kCorruption),
  /// sorted — the batch's quarantine set.
  std::vector<std::pair<FileId, PageId>> quarantined;

  /// Aggregate page IO over all queries (atomic accumulation across
  /// workers; equals the sum of results[i].stats.io). Without a cache it
  /// is independent of worker count and scheduling. With a cache, total
  /// reads+writes stay worker-count-invariant as long as the pool never
  /// evicts (misses = distinct pages, single-flight); under eviction
  /// pressure the totals depend on the interleaving, as on real hardware.
  IoStats total_io;

  /// Host wall-clock time of the batch.
  double wall_millis = 0;

  /// Per-worker modeled busy time: the sum of QueryStats::ResponseMillis
  /// (compute + modeled disk latency) over the queries that worker ran.
  /// Each worker owns a private DiskView — its own spindle — so workers
  /// overlap; the batch's modeled makespan is the busiest worker.
  std::vector<double> worker_modeled_millis;

  double ModeledMakespanMillis() const;

  /// Queries per modeled second: results.size() / makespan.
  double ModeledQps() const;
};

/// Outcome of one RunOverlayBatch call: Q queries answered for K overlay
/// users each, via one base-space run per query plus incremental re-pruning
/// of the overlay-sensitive candidates (docs/OVERLAYS.md).
struct OverlayBatchResult {
  /// results[q][u] answers queries[q] under overlays[u]: rows are
  /// bit-identical to rebuilding user u's patched SimilaritySpace and
  /// running the full algorithm over it. Per-(q,u) stats carry only
  /// result_size — the shared work (base run, classification, re-check
  /// scans) is reported once in the batch-level fields below, because
  /// attributing one shared scan to K users would double-count it.
  std::vector<std::vector<ReverseSkylineResult>> results;

  /// statuses[q] is the outcome of queries[q] (for all of its users: the
  /// base run and the re-check scans are shared, so they fail together).
  std::vector<Status> statuses;

  bool ok() const {
    for (const Status& s : statuses) {
      if (!s.ok()) return false;
    }
    return true;
  }
  Status first_error() const {
    for (const Status& s : statuses) {
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  /// The underlying base-space batch (one entry per query): its rows are
  /// the overlay-invariant answer, its stats/IO the phase the users share.
  BatchResult base;

  /// Overlay telemetry. `sensitive_rows` / `invariant_rows` sum the
  /// per-user classification over all users (their sum is rows * users);
  /// `recheck_scans` counts the grouped re-check passes over the dataset
  /// (<= queries * ceil(users / overlay_group)); `recheck_checks` /
  /// `recheck_pair_tests` aggregate the pruning work of the pruner-hint
  /// pass and the re-checks.
  uint64_t sensitive_rows = 0;
  uint64_t invariant_rows = 0;
  uint64_t recheck_scans = 0;
  uint64_t recheck_checks = 0;
  uint64_t recheck_pair_tests = 0;

  /// IO of the classification pass, the hint pass and the re-check scans
  /// (excluded from base.total_io; total_io below is the whole batch).
  IoStats overlay_io;

  /// Aggregate IO: base batch + overlay_io.
  IoStats total_io;

  double wall_millis = 0;

  /// Per-worker modeled busy time including the base batch's: makespan /
  /// QPS are comparable against running the per-user rebuild through the
  /// same engine. ModeledQps counts queries * users answers.
  std::vector<double> worker_modeled_millis;

  double ModeledMakespanMillis() const;
  double ModeledQps() const;
};

/// Shared-nothing parallel executor for reverse-skyline query batches: one
/// immutable PreparedDataset, N pool workers, each worker reading the
/// dataset through a private DiskView (per-query IO accounting therefore
/// matches a sequential run exactly) and spilling phase-1 survivors to
/// view-local scratch files. Queries of a batch fan out across the pool's
/// work-stealing deques; results land at their query's index.
///
/// The base disk must stay structurally frozen (no file creation/writes)
/// for the engine's lifetime; the SimilaritySpace and PreparedDataset are
/// borrowed and must outlive it.
class QueryEngine {
 public:
  QueryEngine(const PreparedDataset& prepared, const SimilaritySpace& space,
              Algorithm algo, EngineOptions opts = {});

  size_t num_workers() const { return pool_.num_threads(); }
  Algorithm algorithm() const { return algo_; }

  /// Storage replicas this engine reads through (>= 1 always exists; the
  /// single-replica set is what used to be the per-worker view list).
  const ReplicaSet& replicas() const { return *replica_set_; }

  /// The shared page cache, or null when cache_pages was 0. Its stats()
  /// aggregate over every batch run so far.
  const BufferPool* buffer_pool() const { return pool_cache_.get(); }

  /// Runs every query, blocking until the batch completes. Each query's
  /// outcome lands in BatchResult::statuses; failed queries report their
  /// partial stats while the rest of the batch returns real results. The
  /// call-level StatusOr is an error only for batch-level problems — or,
  /// with fail_fast set, the first per-query error (legacy semantics).
  StatusOr<BatchResult> RunBatch(const std::vector<Object>& queries);

  /// Answers every query for every overlay user with incremental
  /// re-pruning (docs/OVERLAYS.md): ONE base-space run per query through
  /// the normal RunBatch machinery (workers, cache, kernels, shared scans,
  /// faults, failover — everything applies), one query-independent
  /// classification pass splitting rows into overlay-invariant vs
  /// overlay-sensitive per user, one pass per query recording each
  /// sensitive row's first base-space pruner, and one re-check per (query,
  /// group of overlay_group users) deciding only the sensitive candidates
  /// under that user's overlaid distances, hint first. Rows are
  /// bit-identical to rebuilding each user's patched space and running the
  /// batch per user.
  ///
  /// Every overlay must be non-null and built over this engine's space;
  /// the engine's rs.overlay template must be null (the per-user overlays
  /// come from `overlays`, and the base run must see the base space).
  StatusOr<OverlayBatchResult> RunOverlayBatch(
      const std::vector<Object>& queries,
      const std::vector<const MatrixOverlay*>& overlays);

 private:
  const PreparedDataset* prepared_;
  const SimilaritySpace* space_;
  Algorithm algo_;
  EngineOptions opts_;
  ThreadPool pool_;
  // Per-(worker, replica) views plus per-replica fault oracles; replaces
  // the old per-worker view list + single injector (a 1-replica set is
  // exactly that).
  std::unique_ptr<ReplicaSet> replica_set_;
  std::unique_ptr<BufferPool> pool_cache_;  // shared; null = off
};

}  // namespace nmrs

#endif  // NMRS_EXEC_QUERY_ENGINE_H_
