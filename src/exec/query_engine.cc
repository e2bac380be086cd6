#include "exec/query_engine.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/check.h"
#include "common/sync.h"
#include "common/timer.h"
#include "core/block_rs.h"
#include "core/dominance.h"
#include "exec/overlay_exec.h"

namespace nmrs {

double BatchResult::ModeledMakespanMillis() const {
  double makespan = 0;
  for (double w : worker_modeled_millis) makespan = std::max(makespan, w);
  return makespan;
}

double BatchResult::ModeledQps() const {
  const double makespan = ModeledMakespanMillis();
  if (makespan <= 0) return 0;
  return static_cast<double>(results.size()) / (makespan / 1000.0);
}

double OverlayBatchResult::ModeledMakespanMillis() const {
  double makespan = 0;
  for (double w : worker_modeled_millis) makespan = std::max(makespan, w);
  return makespan;
}

double OverlayBatchResult::ModeledQps() const {
  const double makespan = ModeledMakespanMillis();
  if (makespan <= 0) return 0;
  double answers = 0;
  for (const auto& q : results) answers += static_cast<double>(q.size());
  return answers / (makespan / 1000.0);
}

QueryEngine::QueryEngine(const PreparedDataset& prepared,
                         const SimilaritySpace& space, Algorithm algo,
                         QueryEngineOptions opts)
    : prepared_(&prepared),
      space_(&space),
      algo_(algo),
      opts_(opts),
      pool_(opts.num_workers > 0 ? opts.num_workers
                                 : std::max(1u,
                                            std::thread::hardware_concurrency())) {
  ReplicaSetOptions rso;
  rso.num_replicas =
      std::clamp(opts_.rs.resilience.replicas, 1,
                 static_cast<int>(IoStats::kMaxReplicas));
  rso.num_workers = static_cast<int>(pool_.num_threads());
  if (!opts_.replica_faults.empty()) {
    NMRS_CHECK(opts_.replica_faults.size() ==
               static_cast<size_t>(rso.num_replicas))
        << "replica_faults must cover every replica";
    rso.faults = opts_.replica_faults;
  } else if (opts_.faults.enabled()) {
    rso.faults = {opts_.faults};  // template; ReplicaSet derives the seeds
  }
  rso.replica_fault_seed_base = opts_.rs.resilience.replica_fault_seed_base;
  rso.fault_ceiling = prepared_->stored.disk()->next_file_id();
  replica_set_ =
      std::make_unique<ReplicaSet>(prepared_->stored.disk(), std::move(rso));

  // Fault batches run shared-nothing (see QueryEngineOptions::faults): a
  // shared cache would let one query's faulted fetch leak into another
  // query's reads in a scheduling-dependent way.
  if (opts_.cache_pages > 0 && !replica_set_->faulted()) {
    BufferPoolOptions pool_opts;
    pool_opts.capacity_pages = opts_.cache_pages;
    pool_cache_ = std::make_unique<BufferPool>(prepared_->stored.disk(),
                                               pool_opts);
  }
}

StatusOr<BatchResult> QueryEngine::RunBatch(
    const std::vector<Object>& queries) {
  // Reject out-of-range policies up front instead of bending them: the
  // constructor clamps replicas to build a usable ReplicaSet, but running
  // a batch under a policy the accounting cannot represent would silently
  // drop replica reads (see ResiliencePolicy::Validate).
  NMRS_RETURN_IF_ERROR(opts_.rs.resilience.Validate());

  BatchResult batch;
  batch.results.resize(queries.size());
  batch.statuses.assign(queries.size(), Status::OK());
  batch.worker_modeled_millis.assign(pool_.num_threads(), 0.0);

  Timer timer;
  ConcurrentIoStats total_io;
  QuarantineLog quarantine;
  std::atomic<uint64_t> retried{0};
  WaitGroup wg;

  // Cross-query scan sharing applies when nothing couples a query to its
  // own private disk wrapper: no fault injection (a shared fetch must be
  // clean for everyone), no replica failover (failover views are per query
  // task), and a BRS/SRS plan (the shared pass implements their phase 1).
  const bool shared_eligible =
      opts_.shared_scan && !replica_set_->faulted() &&
      replica_set_->num_replicas() == 1 &&
      (algo_ == Algorithm::kBRS || algo_ == Algorithm::kSRS);
  if (shared_eligible && !queries.empty()) {
    ConcurrentIoStats shared_io;
    std::atomic<uint64_t> shared_batches{0};
    std::atomic<uint64_t> shared_groups{0};
    // Groups are formed by query index, so membership — and therefore
    // every per-query result and the batch totals — is independent of
    // worker count and work-stealing order; only which worker runs a
    // group varies.
    const size_t group_size = std::max<size_t>(1, opts_.shared_scan_group);
    const size_t num_groups = (queries.size() + group_size - 1) / group_size;
    wg.Add(static_cast<int>(num_groups));
    for (size_t g = 0; g < num_groups; ++g) {
      pool_.Submit([this, &queries, &batch, &total_io, &quarantine,
                    &shared_io, &shared_batches, &shared_groups, &wg,
                    group_size, g] {
        const int w = pool_.CurrentWorkerIndex();
        NMRS_CHECK_GE(w, 0);
        DiskView* view = replica_set_->view(w, 0);
        const size_t lo = g * group_size;
        const size_t hi = std::min(queries.size(), lo + group_size);

        RSOptions rs = opts_.rs;
        if (pool_cache_ != nullptr) {
          rs.cache_pages = true;
          rs.buffer_pool = pool_cache_.get();
        } else {
          rs.cache_pages = false;
          rs.buffer_pool = nullptr;
        }
        if (prepared_->stored.checksum_pages()) {
          rs.resilience.checksum_pages = true;
        }
        rs.resilience.quarantine_log = &quarantine;

        StoredDataset local(view, prepared_->stored.file(),
                            prepared_->stored.schema(),
                            prepared_->stored.num_rows(),
                            prepared_->stored.checksum_pages());
        const std::vector<Object> group(queries.begin() + lo,
                                        queries.begin() + hi);
        SharedScanStats ss;
        const IoStats before = replica_set_->WorkerStats(w);
        auto res = SharedScanReverseSkylines(local, *space_, group, rs,
                                             /*ring_order=*/algo_ ==
                                                 Algorithm::kSRS,
                                             &ss);
        double modeled = ss.shared_millis + ss.modeled_backoff_millis +
                         IoCostModel{}.EstimateMillis(ss.shared_io);
        if (res.ok()) {
          for (size_t q = lo; q < hi; ++q) {
            batch.results[q] = std::move((*res)[q - lo]);
            total_io.Add(batch.results[q].stats.io);
            modeled += batch.results[q].stats.ResponseMillis();
          }
          total_io.Add(ss.shared_io);
          shared_io.Add(ss.shared_io);
          shared_batches.fetch_add(ss.shared_batches,
                                   std::memory_order_relaxed);
          shared_groups.fetch_add(1, std::memory_order_relaxed);
        } else {
          // The whole group dies together (the shared pass is one run);
          // charge its partial IO to the batch, unattributed per query.
          for (size_t q = lo; q < hi; ++q) {
            batch.statuses[q] = res.status();
          }
          const IoStats partial = replica_set_->WorkerStats(w) - before;
          total_io.Add(partial);
          modeled = IoCostModel{}.EstimateMillis(partial);
        }
        // Only this worker's thread touches its slot. The shared pass's
        // modeled time lands on the worker that ran it, like any query.
        batch.worker_modeled_millis[static_cast<size_t>(w)] += modeled;
        wg.Done();
      });
    }
    wg.Wait();

    if (opts_.fail_fast) {
      Status first = batch.first_error();
      if (!first.ok()) return first;
    }
    batch.total_io = total_io.Snapshot();
    batch.shared_io = shared_io.Snapshot();
    batch.shared_scan_batches =
        shared_batches.load(std::memory_order_relaxed);
    batch.shared_scan_groups = shared_groups.load(std::memory_order_relaxed);
    batch.wall_millis = timer.ElapsedMillis();
    batch.quarantined = quarantine.Pages();
    if (opts_.rs.resilience.quarantine_log != nullptr) {
      for (const auto& [file, page] : batch.quarantined) {
        opts_.rs.resilience.quarantine_log->Report(file, page);
      }
    }
    return batch;
  }

  wg.Add(static_cast<int>(queries.size()));

  for (size_t i = 0; i < queries.size(); ++i) {
    pool_.Submit([this, &queries, &batch, &total_io, &quarantine, &retried,
                  &wg, i] {
      const int w = pool_.CurrentWorkerIndex();
      NMRS_CHECK_GE(w, 0);
      const int num_replicas = replica_set_->num_replicas();
      DiskView* view = replica_set_->view(w, 0);

      // With fault injection on, this query reads through its own
      // FaultyDisk per replica whose stream is the query index — each
      // query's fault pattern is fixed by the config, not by which worker
      // runs it. The fault ceiling restricts injection to the frozen base
      // files: scratch-file ids are assigned in execution order, so
      // faulting them would reintroduce a scheduling dependence.
      std::vector<std::unique_ptr<FaultyDisk>> wrappers;
      std::vector<SimulatedDisk*> disks = replica_set_->MakeQueryDisks(
          w, static_cast<uint64_t>(i), &wrappers);
      SimulatedDisk* qdisk = disks[0];

      // Failover replica views persist across the queries this worker
      // runs, so reset their disk arms: within a query the failover read
      // sequence is then fixed, making its seq/rand IO split independent
      // of which queries ran earlier on this worker. (The primary view
      // keeps the pre-replica arm behavior untouched.)
      for (int r = 1; r < num_replicas; ++r) {
        replica_set_->view(w, r)->InvalidateArmPosition();
      }

      RSOptions rs = opts_.rs;
      if (num_replicas > 1) {
        rs.failover_disks.assign(disks.begin() + 1, disks.end());
        rs.failover_limit = prepared_->stored.disk()->next_file_id();
      }
      if (rs.num_threads > 1 && rs.executor == nullptr) rs.executor = &pool_;
      if (pool_cache_ != nullptr) {
        rs.cache_pages = true;
        rs.buffer_pool = pool_cache_.get();
      } else {
        rs.cache_pages = false;
        rs.buffer_pool = nullptr;
      }
      // A checksummed dataset implies verification: sealing pages and then
      // not checking them would silently waste the footer.
      if (prepared_->stored.checksum_pages()) {
        rs.resilience.checksum_pages = true;
      }
      // Queries report to the batch-local log; a caller-supplied log gets
      // the batch's findings folded in after the join.
      rs.resilience.quarantine_log = &quarantine;

      const int attempts = 1 + std::max(0, opts_.max_query_retries);
      // Placeholder only: the loop below always runs at least one attempt.
      StatusOr<ReverseSkylineResult> result =
          Status::Internal("query never ran");
      for (int attempt = 0; attempt < attempts; ++attempt) {
        // Retries re-run on the clean view: no fault wrapper, and no
        // failover disks either (the clean view cannot fail, so page
        // failover has nothing to do there).
        SimulatedDisk* attempt_disk = attempt == 0 ? qdisk : view;
        if (attempt == 1) {
          rs.failover_disks.clear();
          rs.failover_limit = PagedReaderOptions::kNoFailoverLimit;
        }
        // Re-wrap the prepared dataset over this attempt's disk: the file
        // id and layout are the base disk's, the IO accounting (and any
        // injected faults) are this disk's.
        PreparedDataset local{
            StoredDataset(attempt_disk, prepared_->stored.file(),
                          prepared_->stored.schema(),
                          prepared_->stored.num_rows(),
                          prepared_->stored.checksum_pages()),
            prepared_->attr_order, prepared_->prepare_millis};
        // Worker-wide snapshot: a failed attempt's failover reads landed
        // on this worker's other replica views, not just the primary.
        const IoStats before = replica_set_->WorkerStats(w);
        result = RunReverseSkyline(local, *space_, queries[i], algo_, rs);
        if (result.ok()) {
          if (attempt > 0) retried.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        // Keep the dead run's partial IO as this query's stats. If a later
        // attempt succeeds it overwrites this: the reported stats are those
        // of the attempt that produced the answer (replica-read
        // accounting), so a recovered query is indistinguishable from one
        // that ran clean the first time.
        ReverseSkylineResult partial;
        partial.stats.io = replica_set_->WorkerStats(w) - before;
        batch.results[i] = std::move(partial);
        if (!result.status().IsStorageFault()) break;
      }

      if (result.ok()) {
        batch.results[i] = std::move(*result);
      } else {
        batch.statuses[i] = result.status();
      }
      total_io.Add(batch.results[i].stats.io);
      // Only this worker's thread touches its slot. Failed queries charge
      // their partial modeled time too — they occupied the spindle.
      batch.worker_modeled_millis[static_cast<size_t>(w)] +=
          batch.results[i].stats.ResponseMillis();
      wg.Done();
    });
  }
  wg.Wait();

  if (opts_.fail_fast) {
    Status first = batch.first_error();
    if (!first.ok()) return first;
  }
  batch.total_io = total_io.Snapshot();
  batch.wall_millis = timer.ElapsedMillis();
  batch.queries_retried = retried.load(std::memory_order_relaxed);
  batch.quarantined = quarantine.Pages();
  if (opts_.rs.resilience.quarantine_log != nullptr) {
    // The caller supplied its own log; fold this batch's findings in.
    for (const auto& [file, page] : batch.quarantined) {
      opts_.rs.resilience.quarantine_log->Report(file, page);
    }
  }
  return batch;
}

StatusOr<OverlayBatchResult> QueryEngine::RunOverlayBatch(
    const std::vector<Object>& queries,
    const std::vector<const MatrixOverlay*>& overlays) {
  NMRS_RETURN_IF_ERROR(ValidateOverlayUsers(opts_.rs, overlays, *space_));

  Timer timer;
  OverlayBatchResult out;
  out.results.resize(queries.size());
  for (auto& per_user : out.results) per_user.resize(overlays.size());
  out.statuses.assign(queries.size(), Status::OK());

  OverlayExecContext ctx;
  ctx.pool = &pool_;
  ctx.replicas = replica_set_.get();
  ctx.data = &prepared_->stored;
  ctx.space = space_;
  ctx.selected = ResolveSelectedAttrs(prepared_->stored.schema(),
                                      opts_.rs.selected_attrs);
  ctx.reader_opts.verify_checksums = prepared_->stored.checksum_pages() ||
                                     opts_.rs.resilience.checksum_pages;
  ctx.overlay_group = opts_.overlay_group;

  // ---- 1. Query-independent classification, once per batch. ----
  OverlayClassification cls;
  NMRS_RETURN_IF_ERROR(ClassifyOverlayRows(ctx, overlays, &cls));
  out.sensitive_rows = cls.TotalSensitive();
  out.invariant_rows = cls.TotalInvariant();

  // ---- 2. One base-space run per query, through the full machinery. ----
  NMRS_ASSIGN_OR_RETURN(out.base, RunBatch(queries));
  out.statuses = out.base.statuses;
  out.worker_modeled_millis = out.base.worker_modeled_millis;
  // The classification pass is modeled as running on worker 0's spindle.
  out.worker_modeled_millis[0] +=
      cls.classify_millis + IoCostModel{}.EstimateMillis(cls.io);

  // ---- 3. Pruner hints, then hinted re-checks per (query, user group). ----
  OverlayRecheckTotals recheck;
  RecheckOverlayBatch(ctx, queries, overlays, cls, out.base.results,
                      &out.results, &out.statuses, &out.worker_modeled_millis,
                      &recheck);

  out.recheck_scans = recheck.scans;
  out.recheck_checks = recheck.checks;
  out.recheck_pair_tests = recheck.pair_tests;
  out.overlay_io = recheck.io;
  out.overlay_io += cls.io;
  out.total_io = out.base.total_io;
  out.total_io += out.overlay_io;
  out.wall_millis = timer.ElapsedMillis();
  return out;
}

}  // namespace nmrs
