#ifndef NMRS_CORE_SHARD_EXCHANGE_H_
#define NMRS_CORE_SHARD_EXCHANGE_H_

#include <cstdint>
#include <vector>

#include "altree/al_tree.h"
#include "common/status.h"
#include "core/query.h"
#include "data/object.h"
#include "data/stored_dataset.h"
#include "sim/similarity_space.h"
#include "storage/paged_reader.h"

namespace nmrs {

/// The per-shard halves of the cross-shard pruner exchange
/// (docs/SHARDING.md): after a shard's local reverse-skyline run, its
/// surviving candidates must be serialized for export (CollectRowsById) and
/// every other shard's surviving candidates must be re-verified against
/// *all* of this shard's rows — the reverse-skyline pruning relation is not
/// transitive, so a shard's pruned rows still prune foreign candidates.
/// All-categorical shards answer the verify from a resident AL-Tree of
/// their rows (BuildShardIndex + PruneCandidatesWithIndex, paper Alg. 4);
/// schemas with numeric attributes stream every row past the candidates
/// (PruneCandidatesAgainstShard), exactly like BRS phase 2 streams all of D.

/// Collects the stored rows whose ids appear in `ids` (ascending RowIds, as
/// every algorithm emits them) by one forward page scan of `data` through
/// `reader`, appending them to *out in stored order and stopping as soon as
/// all are found. IO lands on the reader's disk; the caller deltas its
/// stats. Returns InvalidArgument if some id does not exist in `data`.
Status CollectRowsById(const StoredDataset& data, PagedReader* reader,
                       const std::vector<RowId>& ids, RowBatch* out);

/// Streams every page of `data` past the in-memory `candidates` batch and
/// sets (*pruned)[i] = 1 for every candidate some row of `data` prunes
/// w.r.t. `query` — the BRS phase-2 refinement loop applied to a batch that
/// arrived over the exchange instead of from a scratch file. This flat scan
/// is the verify path for schemas with numeric attributes (whose exact
/// values an AL-Tree only bounds by bucket) and the oracle the indexed path
/// is tested against. Honors opts.selected_attrs, opts.overlay and
/// opts.use_kernels / kernel_promote_rows (each page gets a columnar view,
/// adaptive dispatch as in Phase 2); verdicts and check accounting are
/// identical between the scalar and kernel paths. pair/check/kernel
/// counters land in *stats (IO is the caller's delta). *pruned is resized
/// and zeroed first; rows whose id equals a candidate's id never prune it
/// (identity, as everywhere).
Status PruneCandidatesAgainstShard(const StoredDataset& data,
                                   const SimilaritySpace& space,
                                   const Object& query,
                                   const RowBatch& candidates,
                                   const RSOptions& opts, PagedReader* reader,
                                   std::vector<uint8_t>* pruned,
                                   QueryStats* stats);

/// Loads every row of the all-categorical `data` into the empty `index`
/// (one forward scan through `reader`) and orders its children for search
/// (ALTree::PrepareForSearch): the read-only verify index of one shard.
/// The index's levels follow its own attr_order; any order gives the same
/// verdicts, only check counts differ. IO lands on the reader's disk.
Status BuildShardIndex(const StoredDataset& data, PagedReader* reader,
                       ALTree* index);

/// The verify round over a shard's index: one IsPrunable search (paper
/// Alg. 4) per candidate, which skips every value group that cannot prune
/// instead of testing every row. Sets (*pruned)[i] = 1 exactly when
/// PruneCandidatesAgainstShard over the indexed rows would (Definition 1
/// under opts.selected_attrs and opts.overlay): each selected level
/// compares the overlay-aware candidate column against the query distance,
/// and each unselected level neither blocks a path nor makes it strict.
/// Candidates must not be rows of the index — foreign candidates never are
/// — since no identity exclusion is applied. Counts one pair test per
/// candidate and one check per visited child into *stats; no IO.
void PruneCandidatesWithIndex(const ALTree& index,
                              const SimilaritySpace& space,
                              const Object& query, const RowBatch& candidates,
                              const RSOptions& opts,
                              std::vector<uint8_t>* pruned, QueryStats* stats);

}  // namespace nmrs

#endif  // NMRS_CORE_SHARD_EXCHANGE_H_
