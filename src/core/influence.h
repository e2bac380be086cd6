#ifndef NMRS_CORE_INFLUENCE_H_
#define NMRS_CORE_INFLUENCE_H_

#include <vector>

#include "common/statusor.h"
#include "core/pipeline.h"

namespace nmrs {

/// Influence analysis (the paper's §1 use case): run one reverse-skyline
/// query per subject (admin / car / offer) and rank subjects by influence
/// |RS(Q)| — plus the concentration diagnostics the business-continuity
/// scenario asks for (how much of the total influence the top-k subjects
/// hold).
struct InfluenceReport {
  struct Entry {
    size_t query_index;   // position in the input query vector
    uint64_t influence;   // |RS(Q)|
    QueryStats stats;
  };

  /// Descending by influence; ties by query index.
  std::vector<Entry> ranking;
  uint64_t total_influence = 0;

  /// Fraction of total influence held by the top k subjects (0 when the
  /// total is 0).
  double TopShare(size_t k) const;

  /// Gini coefficient of the influence distribution in [0, 1]
  /// (0 = perfectly even, -> 1 = concentrated on one subject).
  double Gini() const;
};

/// Runs `algo` for every query against the prepared dataset.
StatusOr<InfluenceReport> AnalyzeInfluence(const PreparedDataset& prepared,
                                           const SimilaritySpace& space,
                                           const std::vector<Object>& queries,
                                           Algorithm algo = Algorithm::kTRS,
                                           const RSOptions& opts = {});

}  // namespace nmrs

#endif  // NMRS_CORE_INFLUENCE_H_
