#ifndef NMRS_CORE_QUERY_DISTANCE_TABLE_H_
#define NMRS_CORE_QUERY_DISTANCE_TABLE_H_

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "data/object.h"
#include "data/schema.h"
#include "sim/similarity_space.h"

namespace nmrs {

class MatrixOverlay;

/// Per-query memo of the categorical distances a pruning check reads. For
/// each selected categorical attribute a with domain size k_a it builds,
/// once per query,
///
///   FromQuery(k)[v] = d_a(q_a, v)   (row  d(q, .) of the matrix)
///   ToQuery(k)[v]   = d_a(v, q_a)   (column d(., q) — matrices may be
///                                    asymmetric, so both directions exist)
///   ColumnsTo(k)[v] = d_a(., v)     (a pointer to the whole column: the
///                                    left-hand side d_a(y_a, x_a) of every
///                                    check against a candidate with x_a = v)
///
/// indexed by the *selected position* k, not the AttrId. A candidate's
/// setup (PruneContext::SetCandidate) is then two loads per attribute,
/// FromQuery(k)[x_a] and ColumnsTo(k)[x_a], and every check one more. Domains
/// are small (expert-filled matrices, paper §3), so the whole table is a few
/// cache lines and building it costs one pass over k_a values per attribute.
///
/// Numeric attributes have no finite domain and are skipped: FromQuery /
/// ToQuery / ColumnsTo return nullptr for them and callers fall back to
/// NumDist.
///
/// FromQuery and ToQuery are copies. A ColumnsTo entry points at the base
/// matrix's ColumnTo(v), so `space` must outlive the table and keep its
/// matrices unchanged while the table is in use.
///
/// With an overlay (docs/OVERLAYS.md) the table evaluates the overlaid
/// space: FromQuery gets the overlay entries whose source is q_a, ToQuery
/// those whose destination is q_a, and where the overlay touches column
/// (a, v), ColumnsTo(k)[v] points at a patched copy of that column the table
/// owns. The copies are made once, at build, into one arena sized before it
/// is filled, so every pointer stays valid for the table's lifetime; the
/// untouched columns alias the shared base with zero copies. The table is
/// immutable after construction, so any number of PruneContexts (one per
/// thread or chunk) may share it.
class QueryDistanceTable {
 public:
  /// `selected` must already be resolved (non-empty, validated), as done by
  /// ResolveSelectedAttrs; PruneContext and the algorithms pass their own
  /// resolved list so the positions line up. `overlay`, when non-null, must
  /// have been built over `space` and is borrowed for the table's lifetime.
  QueryDistanceTable(const SimilaritySpace& space, const Schema& schema,
                     const Object& query, const std::vector<AttrId>& selected,
                     const MatrixOverlay* overlay = nullptr);

  // ColumnsTo points into the table's own arena: a copy would point into
  // the source's.
  QueryDistanceTable(const QueryDistanceTable&) = delete;
  QueryDistanceTable& operator=(const QueryDistanceTable&) = delete;

  size_t num_selected() const { return selected_.size(); }
  const std::vector<AttrId>& selected() const { return selected_; }

  /// The overlay the table was patched with; null for a plain base table.
  const MatrixOverlay* overlay() const { return overlay_; }

  /// Dense row d_a(q_a, .) for selected position k; null if numeric.
  const double* FromQuery(size_t k) const {
    return from_offset_[k] < 0 ? nullptr : dists_.data() + from_offset_[k];
  }

  /// Dense column d_a(., q_a) for selected position k; null if numeric.
  const double* ToQuery(size_t k) const {
    return to_offset_[k] < 0 ? nullptr : dists_.data() + to_offset_[k];
  }

  /// Value-indexed column pointers for selected position k: ColumnsTo(k)[v]
  /// is the (overlaid) column d_a(., v), so ColumnsTo(k)[v][y] ==
  /// d_a(y, v). Null if numeric.
  const double* const* ColumnsTo(size_t k) const {
    return cols_offset_[k] < 0 ? nullptr : cols_.data() + cols_offset_[k];
  }

 private:
  std::vector<AttrId> selected_;
  const MatrixOverlay* overlay_;
  std::vector<ptrdiff_t> from_offset_;  // -1 for numeric attrs
  std::vector<ptrdiff_t> to_offset_;
  std::vector<ptrdiff_t> cols_offset_;
  // Query rows and columns, then the patched column copies, back to back;
  // sized once, so cols_ may point into it.
  std::vector<double> dists_;
  std::vector<const double*> cols_;  // card(a) entries per categorical k
};

}  // namespace nmrs

#endif  // NMRS_CORE_QUERY_DISTANCE_TABLE_H_
