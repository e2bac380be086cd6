#ifndef NMRS_CORE_DOMINANCE_H_
#define NMRS_CORE_DOMINANCE_H_

#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "data/object.h"
#include "data/schema.h"
#include "sim/similarity_space.h"

namespace nmrs {

class QueryDistanceTable;

/// Resolves an attribute-subset selection: returns `selected` unchanged if
/// non-empty (validated against the schema), otherwise all attributes.
std::vector<AttrId> ResolveSelectedAttrs(const Schema& schema,
                                         const std::vector<AttrId>& selected);

/// Evaluates the pruning condition of Definition 1: Y prunes candidate X
/// (w.r.t. query Q) iff
///     forall i: d_i(y_i, x_i) <= d_i(q_i, x_i)   and
///     exists i: d_i(y_i, x_i) <  d_i(q_i, x_i),
/// restricted to the selected attributes. The candidate X is set once and
/// its query-side distances d_i(q_i, x_i) are cached; each Prunes() call
/// early-aborts on the first violated attribute and reports how many
/// attribute-level checks it performed.
///
/// Numeric attributes are compared on exact values (buckets are a TRS-tree
/// concern only).
class PruneContext {
 public:
  /// When `table` is non-null it must have been built from the same (space,
  /// query) with the same resolved selection; the context then serves both
  /// sides of every check from the table instead of going through
  /// SimilaritySpace::CatDist twice: SetCandidate makes two loads per
  /// categorical attribute, qdist_ from the table's FromQuery row and the
  /// candidate column from its ColumnsTo pointers, and each check one more.
  /// The table is borrowed, must outlive the context, and may be shared by
  /// any number of contexts.
  ///
  /// When the table carries a MatrixOverlay (docs/OVERLAYS.md) the context
  /// evaluates the *overlaid* space with no work of its own: the table's
  /// rows are patched and its ColumnsTo entries point at patched copies
  /// wherever the overlay touches the column, so the SIMD dominance kernels
  /// gather from CandidateColumn() unchanged. Overlays require the table: a
  /// plain context always evaluates the base space, through CatDist — the
  /// independent reference the oracles use.
  PruneContext(const SimilaritySpace& space, const Schema& schema,
               const Object& query, const std::vector<AttrId>& selected,
               const QueryDistanceTable* table = nullptr);

  size_t num_selected() const { return selected_.size(); }
  const std::vector<AttrId>& selected() const { return selected_; }
  const Object& query() const { return query_; }

  /// Fixes the candidate X = (values, numerics); `numerics` may be null for
  /// all-categorical schemas.
  void SetCandidate(const ValueId* x_values, const double* x_numerics);

  /// d_{selected_[k]}(q, x) for the current candidate.
  double QueryDist(size_t k) const { return qdist_[k]; }

  /// True when the query has distance 0 to the candidate on every selected
  /// attribute (then only identity prevents everything from pruning X).
  bool QueryAtCandidate() const;

  /// Whether Y = (values, numerics) prunes the current candidate. Adds the
  /// number of attribute-level comparisons made to *checks.
  bool Prunes(const ValueId* y_values, const double* y_numerics,
              uint64_t* checks) const;

  /// Distance of value `v` (attr selected_[k]) from the candidate's value —
  /// the left-hand side of a pruning check, exposed for tree traversals.
  /// Table-backed contexts read the cached candidate column, so overlay
  /// patches are honored; the doubles are identical to the direct read
  /// whenever no overlay is attached.
  double CandidateDist(size_t k, ValueId v) const {
    if (table_ != nullptr && !positions_[k].numeric) return xcol_[k][v];
    const AttrId a = selected_[k];
    return space_->CatDist(a, v, x_values_[a]);
  }

  const ValueId* candidate_values() const { return x_values_; }
  const double* candidate_numerics() const { return x_numerics_; }

  /// Null unless a QueryDistanceTable was attached at construction.
  const QueryDistanceTable* table() const { return table_; }

  /// Whether selected position k is a numeric attribute.
  bool SelectedIsNumeric(size_t k) const { return positions_[k].numeric; }

  /// Memoized-path candidate column for selected position k: the table's
  /// ColumnsTo(k)[x_a] cached by SetCandidate, so CandidateColumn(k)[v] ==
  /// d_a(v, x_a). Requires a table-backed context and a categorical k;
  /// this is the array the block dominance kernel gathers from.
  const double* CandidateColumn(size_t k) const {
    NMRS_DCHECK(table_ != nullptr && !positions_[k].numeric);
    return xcol_[k];
  }

  const SimilaritySpace& space() const { return *space_; }

 private:
  // Selected position k, in check order.
  struct Position {
    AttrId attr;
    bool numeric;
  };
  // A categorical position and its table arrays (null without a table).
  struct CatSlot {
    size_t k;
    AttrId attr;
    const double* from_query;
    const double* const* columns_to;
  };
  // A numeric position.
  struct NumSlot {
    size_t k;
    AttrId attr;
  };

  const SimilaritySpace* space_;
  const Schema* schema_;
  Object query_;
  std::vector<AttrId> selected_;
  std::vector<Position> positions_;  // aligned with selected_
  std::vector<CatSlot> cat_;
  std::vector<NumSlot> num_;
  const QueryDistanceTable* table_;
  const ValueId* x_values_ = nullptr;
  const double* x_numerics_ = nullptr;
  std::vector<double> qdist_;
  // Memoized-path state (table_ != nullptr): per selected categorical k,
  // the column d_a(., x_a) for the current candidate, so Prunes() is one
  // indexed load per attribute. Null at numeric positions.
  std::vector<const double*> xcol_;
};

}  // namespace nmrs

#endif  // NMRS_CORE_DOMINANCE_H_
