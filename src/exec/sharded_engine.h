#ifndef NMRS_EXEC_SHARDED_ENGINE_H_
#define NMRS_EXEC_SHARDED_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "altree/al_tree.h"
#include "common/status.h"
#include "common/statusor.h"
#include "core/pipeline.h"
#include "core/query.h"
#include "data/object.h"
#include "exec/engine_options.h"
#include "exec/query_engine.h"
#include "exec/thread_pool.h"
#include "shard/message_stats.h"
#include "shard/shard_plan.h"
#include "sim/similarity_space.h"
#include "storage/buffer_pool.h"
#include "storage/replica_set.h"

namespace nmrs {

// The sharded executor consumes the same EngineOptions as QueryEngine
// (exec/engine_options.h): every shard is modeled as one machine with
// `num_workers` workers, `rs.memory` pages of working memory, its own
// `cache_pages` page cache, and — with resilience.replicas > 1 — its own
// replica set; `net` is the network cost model of the pruner exchange.
// ShardedEngineOptions (same header) is the deprecated nested form.

/// Per-query sharding telemetry.
struct ShardQueryBreakdown {
  /// Local reverse-skyline sizes per shard — the phase-1 candidate counts
  /// the exchange ships (zero for shards the query failed on).
  std::vector<uint64_t> shard_candidates;
  /// This query's exchange traffic (zero with one shard: no exchange runs).
  MessageStats messages;
};

/// Outcome of one ShardedQueryEngine::RunBatch, mirroring BatchResult with
/// per-(shard, worker) modeled time and the exchange ledger added.
struct ShardedBatchResult {
  /// results[i] answers queries[i]: rows are bit-identical to single-shard
  /// execution for every shard count; stats are the sum over the query's
  /// per-shard local runs, export scans and verify passes (deterministic
  /// for a fixed shard count, but shard-count-dependent — see
  /// docs/SHARDING.md).
  std::vector<ReverseSkylineResult> results;
  std::vector<Status> statuses;
  std::vector<ShardQueryBreakdown> breakdown;

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
  size_t num_failed() const {
    size_t n = 0;
    for (const Status& s : statuses) n += s.ok() ? 0 : 1;
    return n;
  }

  /// (query, shard) tasks that failed a faulty run and succeeded on a
  /// clean-view re-run (QueryEngineOptions::max_query_retries).
  uint64_t tasks_retried = 0;

  /// Shared-scan counters, as in BatchResult but per (group, shard) pass.
  uint64_t shared_scan_groups = 0;
  uint64_t shared_scan_batches = 0;
  IoStats shared_io;

  std::vector<std::pair<FileId, PageId>> quarantined;
  /// Every task's IO, including the one-time verify-index builds, which
  /// no query's stats carry.
  IoStats total_io;

  /// Exchange traffic summed over all queries.
  MessageStats total_messages;

  double wall_millis = 0;

  /// modeled[s][w]: modeled busy time of worker w on shard s. Each shard is
  /// one machine whose workers own private DiskViews of the shard replica
  /// set, so all S x W (shard, worker) lanes overlap.
  std::vector<std::vector<double>> shard_worker_modeled_millis;

  /// Largest single modeled task (one query's scatter run or verify pass,
  /// or the shard's verify-index build) per shard: the critical-path lower
  /// bound ModeledMakespanMillis uses.
  std::vector<double> shard_max_task_modeled_millis;

  /// The cost model the batch ran under (copied from the options so the
  /// makespan math is self-contained).
  MessageCostModel net;

  double ExchangeModeledMillis() const {
    return net.EstimateMillis(total_messages);
  }

  /// Busiest shard under an idealized per-shard schedule, plus the
  /// exchange cost. Each shard is one machine with W worker lanes, so its
  /// phase time is the LPT bound max(total_modeled_work / W, largest
  /// single task) — deterministic in the task set rather than in how the
  /// host pool happened to interleave tasks (the raw lanes stay available
  /// as telemetry). Shards overlap; the exchange is modeled as serialized
  /// through the gather coordinator (a deliberately conservative model —
  /// see docs/SHARDING.md).
  double ModeledMakespanMillis() const;
  double ModeledQps() const;
};

/// Outcome of one ShardedQueryEngine::RunOverlayBatch: Q queries answered
/// for K overlay users via one sharded base run per query plus incremental
/// re-pruning over the base dataset (docs/OVERLAYS.md). Mirrors
/// OverlayBatchResult with the sharded base batch inside.
struct ShardedOverlayBatchResult {
  /// results[q][u]: rows bit-identical to a per-user patched-space rebuild
  /// run through the same sharded engine (which is itself bit-identical to
  /// single-shard execution). Per-(q,u) stats carry only result_size; the
  /// shared phases are reported once below.
  std::vector<std::vector<ReverseSkylineResult>> results;
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

  /// The sharded base-space batch the users share.
  ShardedBatchResult base;

  uint64_t sensitive_rows = 0;
  uint64_t invariant_rows = 0;
  uint64_t recheck_scans = 0;
  uint64_t recheck_checks = 0;
  uint64_t recheck_pair_tests = 0;

  /// IO of the classification, hint and re-check passes (over the base
  /// file, through clean views; not part of base.total_io).
  IoStats overlay_io;
  IoStats total_io;

  double wall_millis = 0;

  /// Per-worker modeled busy time of the overlay phases only (the base
  /// batch models its own lanes); the phases are serialized: base batch,
  /// then the overlay scans on the same worker lanes.
  std::vector<double> overlay_worker_modeled_millis;

  /// base.ModeledMakespanMillis() + the busiest overlay lane.
  double ModeledMakespanMillis() const;
  double ModeledQps() const;  // queries * users / makespan
};

/// Scatter/gather executor over a ShardedDataset (docs/SHARDING.md): every
/// query fans out to all non-empty shards, each shard runs the *complete*
/// configured algorithm (naive/BRS/SRS/TRS — kernels, adaptive dispatch,
/// caching, faults and failover all apply per shard, unchanged) over its
/// local rows, producing its local reverse skyline; the pruner exchange
/// then gathers every shard's surviving candidates, broadcasts the merged
/// set back, and each shard tests the foreign candidates against all its
/// local rows — through a resident AL-Tree of the shard for categorical
/// schemas, a flat scan otherwise (pruned local rows still prune — the
/// relation is not transitive). A candidate survives iff every shard's
/// verdict clears it, which makes the merged row set bit-identical to
/// single-shard execution by construction, for any partitioning.
///
/// Determinism contract: rows and statuses are independent of worker count
/// and scheduling, and equal to the single-shard rows for every shard
/// count. With num_shards == 1 over a Partition(num_shards=1) dataset the
/// engine reads the base file itself with fault stream == the query index
/// — counters and IO then reproduce QueryEngine bit-for-bit. With more
/// shards, per-query counters are deterministic for a fixed shard count
/// but necessarily differ from the single-shard counters. They are also
/// the same in an engine's first batch, which builds the verify indexes,
/// as in every later one: the builds are charged to no query.
///
/// Fault streams: (query q, shard s) reads under stream q + (s << 32), a
/// pure function of the pair, so fault patterns stay independent of worker
/// count; shard 0 keeps stream q, preserving the single-shard pattern.
class ShardedQueryEngine {
 public:
  /// `sharded`, `space` are borrowed and must outlive the engine; the base
  /// disk must stay structurally frozen for the engine's lifetime (the
  /// ShardedDataset's files are part of the frozen structure).
  ShardedQueryEngine(const ShardedDataset& sharded,
                     const SimilaritySpace& space, Algorithm algo,
                     EngineOptions opts = {});

  /// Deprecation shim for the historical nested-options form; flattens
  /// into EngineOptions (opts.engine with opts.net grafted on).
  ShardedQueryEngine(const ShardedDataset& sharded,
                     const SimilaritySpace& space, Algorithm algo,
                     const ShardedEngineOptions& opts)
      : ShardedQueryEngine(sharded, space, algo, opts.Flatten()) {}

  size_t num_workers() const { return pool_.num_threads(); }
  int num_shards() const { return sharded_->num_shards(); }
  Algorithm algorithm() const { return algo_; }

  /// Shard s's replica set / page cache (cache null when cache_pages == 0
  /// or the batch runs fault injection, as in QueryEngine).
  const ReplicaSet& replicas(int s) const { return *replica_sets_[s]; }
  const BufferPool* buffer_pool(int s) const { return pool_caches_[s].get(); }

  /// Heap bytes of shard s's verify index: zero until a batch has verified
  /// foreign candidates against shard s, and always for schemas with
  /// numeric attributes (those verify by a flat scan). The index lives
  /// outside RSOptions::memory, like the page cache.
  size_t verify_index_bytes(int s) const;

  /// Runs every query through scatter -> exchange -> verify -> merge,
  /// blocking until the batch completes. Per-query isolation as in
  /// QueryEngine: a storage fault on any shard fails only that query.
  StatusOr<ShardedBatchResult> RunBatch(const std::vector<Object>& queries);

  /// Answers every query for every overlay user (docs/OVERLAYS.md): one
  /// sharded base run per query through RunBatch (scatter, exchange,
  /// verify, faults, failover — everything applies), one classification
  /// pass over the base dataset, and hinted, grouped re-checks of the
  /// overlay-sensitive candidates through clean views. Rows are
  /// bit-identical to rebuilding each user's patched space and running the
  /// sharded batch per user. Overlays must be non-null, built over this
  /// engine's space; the engine's rs.overlay template must be null.
  StatusOr<ShardedOverlayBatchResult> RunOverlayBatch(
      const std::vector<Object>& queries,
      const std::vector<const MatrixOverlay*>& overlays);

 private:
  uint64_t Stream(size_t query, int shard) const {
    return static_cast<uint64_t>(query) +
           (static_cast<uint64_t>(shard) << 32);
  }

  const ShardedDataset* sharded_;
  const SimilaritySpace* space_;
  Algorithm algo_;
  EngineOptions opts_;
  ThreadPool pool_;
  FileId fault_ceiling_;
  // Per-shard replica sets and page caches: per-(worker, shard) DiskViews
  // live inside the replica sets; per-shard pools route each shard's pages
  // through its own cache.
  std::vector<std::unique_ptr<ReplicaSet>> replica_sets_;
  std::vector<std::unique_ptr<BufferPool>> pool_caches_;
  // Per-shard verify indexes (docs/SHARDING.md, step 4): each is built once,
  // by the first batch whose verify round needs it, and only read after.
  // The mutex guards the slots, not the trees.
  mutable std::mutex verify_index_mu_;
  std::vector<std::unique_ptr<const ALTree>> verify_index_;
};

}  // namespace nmrs

#endif  // NMRS_EXEC_SHARDED_ENGINE_H_
