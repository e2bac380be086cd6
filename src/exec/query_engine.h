#ifndef NMRS_EXEC_QUERY_ENGINE_H_
#define NMRS_EXEC_QUERY_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
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
#include "exec/overlay_exec.h"
#include "exec/thread_pool.h"
#include "shard/message_stats.h"
#include "shard/shard_plan.h"
#include "sim/similarity_space.h"
#include "storage/buffer_pool.h"
#include "storage/io_stats.h"
#include "storage/replica_set.h"

namespace nmrs {

// The executor options (EngineOptions) live in exec/engine_options.h,
// shared with the Database front door. Every shard is modeled as one
// machine with `num_workers` workers, `rs.memory` pages of working memory,
// its own `cache_pages` page cache and, with resilience.replicas > 1, its
// own replica set; `net` is the network cost model of the pruner exchange.

/// Per-query sharding telemetry.
struct ShardQueryBreakdown {
  /// Local reverse-skyline sizes per shard — the phase-1 candidate counts
  /// the exchange ships (zero for shards the query failed on).
  std::vector<uint64_t> shard_candidates;
  /// This query's exchange traffic (zero with one shard: no exchange runs).
  MessageStats messages;
};

/// Outcome of one QueryEngine::RunBatch.
struct BatchResult {
  /// results[i] answers queries[i]: rows are bit-identical for every shard
  /// count. Stats are the sum over the query's per-shard local runs, export
  /// scans and verify passes; with one shard and no cache they equal what a
  /// sequential RunReverseSkyline of that query reports, unless the shard
  /// answers resident TRS (QueryEngine; no IO, no phase 2). With a shared
  /// cache (cache_pages > 0) the *rows* are still identical, but which
  /// query gets charged a miss depends on who touched the page first, so
  /// per-query IO becomes interleaving-dependent; only aggregate invariants
  /// survive (see docs/CACHING.md). With more shards the counters are
  /// deterministic for a fixed shard count but shard-count-dependent (see
  /// docs/SHARDING.md).
  std::vector<ReverseSkylineResult> results;

  /// statuses[i] is the outcome of queries[i]. On failure, results[i]
  /// holds no rows but still carries the partial IO the query charged
  /// before dying (its share of batch cost, folded into total_io too).
  std::vector<Status> statuses;

  std::vector<ShardQueryBreakdown> breakdown;

  /// True iff every query succeeded.
  bool ok() const {
    for (const Status& s : statuses) {
      if (!s.ok()) return false;
    }
    return true;
  }

  /// The lowest-index failure, or OK if none — the status the fail-fast
  /// option returns.
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

  /// Queries with at least one (query, shard) task that failed a faulty
  /// run and succeeded on a clean-view re-run
  /// (EngineOptions::max_query_retries), and the number of such tasks.
  /// Equal with one shard.
  uint64_t queries_retried = 0;
  uint64_t tasks_retried = 0;

  /// Page segments built per shard (docs/CACHING.md, "Segment store"):
  /// the distinct pages of shard s the batch's BRS/SRS reads decoded into
  /// columns, once each. Zero for a shard with no store: other
  /// algorithms, use_kernels off, or fault injection. Kept off the
  /// per-query stats, which stay independent of which query read a page
  /// first.
  std::vector<uint64_t> shard_segments_built;

  /// Pages any query in this batch gave up on (kDataLoss / kCorruption),
  /// sorted — the batch's quarantine set.
  std::vector<std::pair<FileId, PageId>> quarantined;

  /// Every task's IO, including the one-time shard-index builds (a build
  /// that misses the TRS budget stops after one phase-1 batch), which no
  /// query's stats carry. Without a cache it is independent of worker
  /// count and scheduling. With a cache, total reads+writes stay
  /// worker-count-invariant as long as the pool never evicts (misses =
  /// distinct pages, single-flight); under eviction pressure the totals
  /// depend on the interleaving, as on real hardware.
  IoStats total_io;

  /// Exchange traffic summed over all queries.
  MessageStats total_messages;

  /// Host wall-clock time of the batch.
  double wall_millis = 0;

  /// modeled[s][w]: modeled busy time (QueryStats::ResponseMillis, compute
  /// plus modeled disk latency) of worker w on shard s. Each shard is one
  /// machine whose workers own private DiskViews of the shard replica set
  /// — their own spindles — so all S x W (shard, worker) lanes overlap.
  std::vector<std::vector<double>> shard_worker_modeled_millis;

  /// Largest single modeled task (one query's scatter run or verify pass,
  /// or the shard's index build) per shard: the critical-path lower bound
  /// ModeledMakespanMillis uses.
  std::vector<double> shard_max_task_modeled_millis;

  /// The cost model the batch ran under (copied from the options so the
  /// makespan math is self-contained).
  MessageCostModel net;

  double ExchangeModeledMillis() const {
    return net.EstimateMillis(total_messages);
  }

  /// The modeled makespan (docs/PARALLELISM.md): the busiest shard under an
  /// idealized per-shard schedule, plus the exchange cost. Each shard's
  /// phase time is the LPT bound max(total_modeled_work / W, largest single
  /// task) — deterministic in the task set rather than in how the host pool
  /// happened to interleave tasks (the raw lanes stay available as
  /// telemetry). Shards overlap; the exchange is modeled as serialized
  /// through the gather coordinator (a deliberately conservative model —
  /// see docs/SHARDING.md). With one worker this is the busiest lane.
  double ModeledMakespanMillis() const;

  /// Queries per modeled second: results.size() / makespan.
  double ModeledQps() const;
};

/// Outcome of one QueryEngine::RunOverlayBatch: Q queries answered for K
/// overlay users via one base run per query plus incremental re-pruning of
/// the overlay-sensitive candidates over the base dataset
/// (docs/OVERLAYS.md).
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
  /// `recheck_scans` counts the grouped re-check tasks
  /// (<= queries * ceil(users / kOverlayGroup)); `recheck_checks` /
  /// `recheck_pair_tests` aggregate the pruning work of the pruner-hint
  /// pass and the re-checks.
  uint64_t sensitive_rows = 0;
  uint64_t invariant_rows = 0;
  uint64_t recheck_scans = 0;
  uint64_t recheck_checks = 0;
  uint64_t recheck_pair_tests = 0;

  /// IO of the classification pass over the base file and of the shard
  /// index builds this batch made, through clean views; not part of
  /// base.total_io.
  IoStats overlay_io;

  /// Aggregate IO: base batch + overlay_io.
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

/// The query executor: scatter/gather over a ShardedDataset with N >= 1
/// shards (docs/PARALLELISM.md, docs/SHARDING.md). Queries fan out across
/// the pool's work-stealing deques, one task per (query, shard); each
/// worker reads through a private DiskView and spills phase-1 survivors to
/// view-local scratch files; results land at their query's index.
///
/// Every shard runs the *complete* configured algorithm (naive/BRS/SRS/TRS
/// — kernels, adaptive dispatch, caching, faults and failover all apply
/// per shard, unchanged) over its local rows, producing its local reverse
/// skyline. With more than one shard, the pruner exchange then gathers
/// every shard's surviving candidates, broadcasts the merged set back, and
/// each shard tests the foreign candidates against all its local rows
/// through a read-only AL-Tree of the shard (pruned local rows still prune
/// — the relation is not transitive). A candidate survives iff every
/// shard's verdict clears it, which makes the merged row set bit-identical
/// to single-shard execution by construction, for any partitioning. That
/// tree is the engine's one index of the shard: resident TRS and the
/// overlay stages (RunOverlayBatch) read it too.
///
/// Resident TRS: under TRS the same per-shard tree, built once by the
/// engine's first batch, also answers the local run of every shard it
/// holds within RSOptions::memory — then TRS would load the shard as one
/// phase-1 batch, whose survivors are the answer (ResidentReverseSkyline).
/// Such a shard reads no page per query and runs no phase 2, and its
/// candidates go to the exchange straight from the tree. Shards that do
/// not fit keep the per-query TRS run. One rule sets both paths: the
/// engine's first batch builds each active shard's tree under
/// RSOptions::memory. A tree that fits is kept and answers the scatter and
/// the verify. One that misses is dropped after one phase-1 batch of
/// pages, and the shard runs TRS per query for the engine's lifetime; the
/// verify then builds its whole tree outside the budget, as for every
/// algorithm, and the scatter never reads it.
///
/// Determinism contract: rows and statuses are independent of worker count
/// and scheduling, and equal to the single-shard rows for every shard
/// count. With one shard the engine reads the base file itself with fault
/// stream == the query index, and runs no exchange: unless the shard is
/// resident, per-query counters and IO equal a sequential
/// RunReverseSkyline of each query. With more shards, or a resident shard,
/// per-query counters are deterministic for a fixed shard count but differ
/// from the sequential ones. They are also the same in an engine's first
/// batch, which builds the shard indexes, as in every later one: the
/// builds are charged to no query.
///
/// Fault streams: (query q, shard s) reads under stream q + (s << 32), a
/// pure function of the pair, so fault patterns stay independent of worker
/// count; shard 0 keeps stream q.
///
/// The base disk must stay structurally frozen (no file creation/writes)
/// for the engine's lifetime; the ShardedDataset's files are part of the
/// frozen structure.
class QueryEngine {
 public:
  /// Borrows `sharded` and `space`; both must outlive the engine.
  QueryEngine(const ShardedDataset& sharded, const SimilaritySpace& space,
              Algorithm algo, EngineOptions opts = {});

  /// Owns a one-shard partition of `prepared`, which aliases its file (no
  /// file is created); `prepared`'s disk and `space` are borrowed.
  QueryEngine(const PreparedDataset& prepared, const SimilaritySpace& space,
              Algorithm algo, EngineOptions opts = {});

  size_t num_workers() const { return pool_.num_threads(); }
  int num_shards() const { return sharded_->num_shards(); }
  Algorithm algorithm() const { return algo_; }

  /// Shard s's storage replicas (>= 1 always exists).
  const ReplicaSet& replicas(int s = 0) const { return *replica_sets_[s]; }

  /// Shard s's page cache, or null when cache_pages was 0 or the engine
  /// runs fault injection. Its stats() aggregate over every batch so far.
  const BufferPool* buffer_pool(int s = 0) const {
    return pool_caches_[s].get();
  }

  /// Heap bytes of shard s's index, the read-only AL-Tree of its rows:
  /// zero until a batch has read it. A TRS engine keeps every active
  /// shard's index that fits RSOptions::memory (resident TRS) from its
  /// first batch on. Every algorithm builds the rest whole when a batch
  /// needs them: the exchange verify (two or more active shards) and the
  /// overlay stages. Those live outside RSOptions::memory, like the page
  /// cache.
  size_t shard_index_bytes(int s) const;

  /// Runs every query through scatter -> exchange -> verify -> merge,
  /// blocking until the batch completes. Each query's outcome lands in
  /// BatchResult::statuses: a storage fault on any shard fails only that
  /// query, while the rest of the batch returns real results. The
  /// call-level StatusOr is an error only for batch-level problems — or,
  /// with fail_fast set, the first per-query error.
  StatusOr<BatchResult> RunBatch(const std::vector<Object>& queries);

  /// Answers every query for every overlay user with incremental
  /// re-pruning (docs/OVERLAYS.md): ONE base-space run per query through
  /// RunBatch (workers, cache, kernels, shards, faults,
  /// failover — everything applies), one query-independent classification
  /// pass over the base dataset splitting rows into overlay-invariant vs
  /// overlay-sensitive per user, one pass per query recording a base-space
  /// pruner for the sensitive rows outside the base answer, and one
  /// re-check per (query, group of kOverlayGroup users) deciding only the
  /// sensitive candidates under that user's overlaid distances, hint
  /// first. The hint pass and the re-checks search the active shards'
  /// indexes (paper Alg. 4) in shard order; what of them the batch builds
  /// is charged to its overlay_io and overlay lanes. A failed build fails
  /// that batch's queries, and the next batch retries. Rows are
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
  QueryEngine(std::unique_ptr<const ShardedDataset> owned,
              const ShardedDataset* sharded, const SimilaritySpace& space,
              Algorithm algo, EngineOptions opts);

  uint64_t Stream(size_t query, int shard) const {
    return static_cast<uint64_t>(query) +
           (static_cast<uint64_t>(shard) << 32);
  }

  // Every shard with rows, or the only shard (even empty), whose run must
  // reproduce a sequential one exactly.
  std::vector<int> ActiveShards() const;

  // The one index build path: one task per shard in `shards` that lacks a
  // tree (built under `budget_bytes`, ~0 for the whole shard) or, with
  // `row_leaves`, its IndexRowLeaves; each hands its IO and modeled time to
  // `charge`. A shard whose (*status)[s] failed is not retried, and one
  // that missed a budget is only built whole. Then fills (*trees)[s].
  void EnsureShardIndexes(
      const std::vector<int>& shards, uint64_t budget_bytes, bool row_leaves,
      QuarantineLog* quarantine,
      const std::function<void(int s, int w, const IoStats& io,
                               double millis)>& charge,
      std::vector<ShardTree>* trees, std::vector<Status>* status);

  std::unique_ptr<const ShardedDataset> owned_;  // one-shard constructor
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
  // Per-shard indexes (docs/SHARDING.md) for the resident TRS scatter, the
  // exchange verify and the overlay stages; each is built once, by the
  // first batch that reads it, and only read after (the first overlay
  // batch adds its row-leaf array). A failed build leaves the slot empty
  // and the next batch retries. The mutex guards the slots. A slot's
  // LeafTable is built with its tree and lives as long.
  struct ShardIndex {
    std::unique_ptr<const ALTree> tree;
    LeafTable leaves;
    std::vector<ALTree::NodeId> row_leaf;
  };
  mutable std::mutex shard_index_mu_;
  std::vector<ShardIndex> shard_index_;
  // 1 once a build under RSOptions::memory found shard s's tree over it;
  // no later batch tries that again (only whole builds still run).
  std::vector<uint8_t> shard_over_budget_;
};

}  // namespace nmrs

#endif  // NMRS_EXEC_QUERY_ENGINE_H_
