#ifndef NMRS_TESTS_TESTING_TEST_UTIL_H_
#define NMRS_TESTS_TESTING_TEST_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/query.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "data/object.h"
#include "data/stored_dataset.h"
#include "sim/similarity_space.h"
#include "storage/paged_reader.h"
#include "testing/shard_index.h"

namespace nmrs {
namespace testing {

/// The paper's running example (Table 1 + Figure 1): six servers over
/// three attributes — OS {MSW=0, RHL=1, SL=2}, Processor {AMD=0, Intel=1},
/// DB {Informix=0, DB2=1, Oracle=2} — with the hand-specified non-metric
/// distances (d1 violates the triangle inequality:
/// d1(MSW,SL)=1.0 > d1(MSW,RHL)+d1(RHL,SL)=0.9).
///
/// For query Q=[MSW,Intel,DB2] the reverse skyline is {O3, O6} =
/// row ids {2, 5}; the paper also lists each object's pruners.
struct RunningExample {
  // Value-id aliases for readability.
  enum OS : ValueId { kMSW = 0, kRHL = 1, kSL = 2 };
  enum Proc : ValueId { kAMD = 0, kIntel = 1 };
  enum DB : ValueId { kInformix = 0, kDB2 = 1, kOracle = 2 };

  Dataset dataset;
  SimilaritySpace space;
  Object query;  // [MSW, Intel, DB2]

  RunningExample();
};

/// A random all-categorical instance: dataset + similarity space + queries,
/// all derived deterministically from `seed`.
struct RandomInstance {
  Dataset data;
  SimilaritySpace space;

  RandomInstance(uint64_t seed, uint64_t num_rows,
                 const std::vector<size_t>& cardinalities,
                 bool normal_distribution = true);
};

/// The flat-scan oracle of the exchange verify: streams every page of
/// `data` past the in-memory `candidates` batch and sets (*pruned)[i] = 1
/// for every candidate some row of `data` prunes w.r.t. `query` — the BRS
/// phase-2 refinement loop applied to a batch that arrived over the
/// exchange. The engine answers the verify from an index
/// (PruneCandidatesWithIndex); tests check it against this scan. Honors
/// opts.selected_attrs, opts.overlay and opts.use_kernels /
/// kernel_promote_rows (each page gets a columnar view, adaptive dispatch
/// as in Phase 2); verdicts and check accounting are identical between the
/// scalar and kernel paths. pair/check/kernel counters land in *stats.
/// *pruned is resized and zeroed first; rows whose id equals a candidate's
/// id never prune it (identity, as everywhere).
Status PruneCandidatesAgainstShard(const StoredDataset& data,
                                   const SimilaritySpace& space,
                                   const Object& query,
                                   const RowBatch& candidates,
                                   const RSOptions& opts, PagedReader* reader,
                                   std::vector<uint8_t>* pruned,
                                   QueryStats* stats);

/// The resident TRS oracle: `got` is an engine's resident answer, `trs` a
/// sequential TreeReverseSkyline of the same query with use_kernels = false
/// that loaded the data as one phase-1 batch. Rows, checks and pair tests
/// match TRS phase 1; there is no phase 2, no kernel probe and no IO.
void ExpectResidentTrs(const ReverseSkylineResult& got,
                       const ReverseSkylineResult& trs,
                       const std::string& label);

}  // namespace testing
}  // namespace nmrs

#endif  // NMRS_TESTS_TESTING_TEST_UTIL_H_
