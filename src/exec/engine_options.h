#ifndef NMRS_EXEC_ENGINE_OPTIONS_H_
#define NMRS_EXEC_ENGINE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/query.h"
#include "shard/message_stats.h"
#include "storage/fault_injection.h"

namespace nmrs {

/// The executor's options — QueryEngine and the Database front door both
/// consume this struct: workers, caches, faults, replicas and the
/// shard-exchange network model. All of it is configuration; the
/// engine builds the runtime handles each task borrows (pool, page cache,
/// failover replicas, quarantine log) into that task's ExecContext.
struct EngineOptions {
  /// Worker threads (0 = std::thread::hardware_concurrency()).
  size_t num_workers = 0;

  /// Per-query policy, read by every task. Setting rs.num_threads > 1
  /// additionally parallelizes each query's phase-1 candidate checks on
  /// the engine's pool. A checksummed dataset turns on
  /// rs.resilience.checksum_pages.
  RSOptions rs;

  /// Shared page-cache capacity in pages; 0 = no cache (seed-identical
  /// IO). When > 0 the engine owns one BufferPool per shard over the
  /// frozen base disk, shared by all of that shard's workers.
  /// See docs/CACHING.md.
  uint64_t cache_pages = 0;

  /// Deterministic storage fault injection (docs/ROBUSTNESS.md). When
  /// faults.enabled(), every query task reads through its own FaultyDisk
  /// whose fault stream is the query's batch index — so the faults query i
  /// sees are a pure function of (faults.seed, i, file, page, attempt),
  /// independent of worker count and work-stealing order.
  ///
  /// With rs.resilience.replicas > 1 this config is the *template* for
  /// every replica: replica 0 runs it verbatim, replica r runs it under
  /// seed ReplicaSet::ReplicaSeed(faults.seed, ..., r).
  FaultConfig faults;

  /// Explicit per-replica fault configs; overrides the `faults` template
  /// when non-empty (size must then equal rs.resilience.replicas; a
  /// disabled entry leaves that replica clean).
  std::vector<FaultConfig> replica_faults;

  /// Fail-fast error semantics: when true, RunBatch returns the first
  /// per-query error as a bare error status (after the whole batch has
  /// run), discarding the batch result. Default false = graceful
  /// degradation with per-query statuses.
  bool fail_fast = false;

  /// Extra attempts for a query whose run failed with a storage-fault
  /// status: the query is re-run on a clean view — no fault wrapper —
  /// modeling a replica read. Non-storage errors are never retried.
  int max_query_retries = 0;

  /// Network cost model of the cross-shard pruner exchange
  /// (docs/SHARDING.md). Unused with one shard: no exchange runs.
  MessageCostModel net;
};

}  // namespace nmrs

#endif  // NMRS_EXEC_ENGINE_OPTIONS_H_
