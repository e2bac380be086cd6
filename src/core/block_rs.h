#ifndef NMRS_CORE_BLOCK_RS_H_
#define NMRS_CORE_BLOCK_RS_H_

#include <cstdint>
#include <vector>

#include "common/statusor.h"
#include "core/query.h"
#include "data/stored_dataset.h"
#include "sim/similarity_space.h"

namespace nmrs {

/// BRS — Block Reverse Skyline (paper Alg. 2). Phase 1 loads
/// memory-sized batches of contiguous pages and prunes within each batch
/// (pruned objects still act as pruners), spilling survivors to a scratch
/// area. Phase 2 loads survivor batches of (memory - 1) pages and streams
/// the full database past each batch, one page at a time, removing anything
/// pruned; what remains is output.
StatusOr<ReverseSkylineResult> BlockReverseSkyline(
    const StoredDataset& data, const SimilaritySpace& space,
    const Object& query, const RSOptions& opts = {},
    const ExecContext& exec = {});

/// SRS — Sort Reverse Skyline (paper §4.2): BRS executed over a
/// multi-attribute pre-sorted database (the caller is responsible for the
/// pre-sort; see PrepareDataset). The only algorithmic difference is the
/// phase-1 pruner search order: for each object the search radiates outward
/// from its position in the sorted order (offsets ±1, ±2, ...), so that a
/// nearby pruner — likely, since sorting clusters shared values — is found
/// after few checks.
StatusOr<ReverseSkylineResult> SortReverseSkyline(
    const StoredDataset& sorted_data, const SimilaritySpace& space,
    const Object& query, const RSOptions& opts = {},
    const ExecContext& exec = {});

/// Work of a shared phase-1 scan that no single query owns (docs/KERNELS.md,
/// "Cross-query scan sharing"). The scan's page fetches are charged here —
/// each loaded batch feeds every query's phase-1 checks, so attributing them
/// to one query would misstate everyone's IO — while per-query scratch
/// spills and phase-2 IO stay in that query's QueryStats::io.
struct SharedScanStats {
  /// Phase-1 scan IO of the shared pass (page reads of D; excludes the
  /// per-query scratch writes interleaved with it).
  IoStats shared_io;
  /// Memory-sized batches the shared scan loaded (each one batch of every
  /// query's phase 1, i.e. per-query phase1_batches == shared_batches).
  uint64_t shared_batches = 0;
  /// Candidate attribute-blocks gathered once into the shared cache and
  /// reused by every query's kernel (kernel path only).
  uint64_t shared_gather_blocks = 0;
  /// Wall time of the shared phase-1 pass (not attributed per query; the
  /// per-query compute_millis covers phase 2 only).
  double shared_millis = 0;
  /// Modeled retry backoff of the shared scan's reader.
  double modeled_backoff_millis = 0;
};

/// BRS/SRS phase 1 for a batch of queries in ONE pass over the data: each
/// memory-sized batch is loaded once and every query's intra-batch pruning
/// runs against it (candidate-major, so with RSOptions::use_kernels the
/// per-candidate attribute gathers are shared across queries through a
/// SharedCandidateCache and each query pays a compare-only pass). Phase 2
/// then refines each query's survivors separately, reusing the single-query
/// path. `ring_order` selects the SRS expanding-ring phase-1 search (the
/// caller must pass the SRS-sorted dataset) vs the BRS forward scan.
///
/// Per query, `rows` and the stats the paper measures — checks, pair tests,
/// phase-1 survivors/batches, result size — are bit-identical to running
/// that query alone through BlockReverseSkyline / SortReverseSkyline with
/// the same options (num_threads is ignored here: checks run sequentially
/// per batch). Only the IO *attribution* differs: the shared pass is
/// reported once in `shared` instead of once per query, so the batch total
/// (sum of per-query io + shared_io) replaces Q redundant scans of D with
/// one. RSOptions::resilience and the ExecContext's cache, failover and
/// quarantine handles apply to the shared reader and every per-query reader
/// alike.
StatusOr<std::vector<ReverseSkylineResult>> SharedScanReverseSkylines(
    const StoredDataset& data, const SimilaritySpace& space,
    const std::vector<Object>& queries, const RSOptions& opts,
    bool ring_order, SharedScanStats* shared, const ExecContext& exec = {});

}  // namespace nmrs

#endif  // NMRS_CORE_BLOCK_RS_H_
