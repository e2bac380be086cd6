#include "core/query_distance_table.h"

#include <cstring>

#include "common/check.h"
#include "sim/matrix_overlay.h"

namespace nmrs {

QueryDistanceTable::QueryDistanceTable(const SimilaritySpace& space,
                                       const Schema& schema,
                                       const Object& query,
                                       const std::vector<AttrId>& selected,
                                       const MatrixOverlay* overlay)
    : selected_(selected), overlay_(overlay) {
  NMRS_CHECK(!selected_.empty()) << "pass a resolved selection";
  NMRS_CHECK_EQ(query.values.size(), schema.num_attributes());
  if (overlay_ != nullptr) {
    NMRS_CHECK_EQ(&overlay_->base(), &space)
        << "overlay built over a different base space";
    if (overlay_->empty()) overlay_ = nullptr;  // transparent overlay
  }
  from_offset_.assign(selected_.size(), -1);
  to_offset_.assign(selected_.size(), -1);
  cols_offset_.assign(selected_.size(), -1);

  // Size the arena first (query row and column, then one patched copy per
  // touched column), so the pointers into it stay valid.
  size_t total = 0;
  size_t num_cols = 0;
  for (AttrId a : selected_) {
    if (space.IsNumeric(a)) continue;
    const size_t card = space.Cardinality(a);
    size_t touched = 0;
    if (overlay_ != nullptr && overlay_->TouchesAttr(a)) {
      for (ValueId v = 0; v < card; ++v) {
        touched += overlay_->TouchesColumn(a, v) ? 1 : 0;
      }
    }
    total += (2 + touched) * card;
    num_cols += card;
  }
  dists_.resize(total);
  cols_.resize(num_cols);

  size_t off = 0;
  size_t col_off = 0;
  for (size_t k = 0; k < selected_.size(); ++k) {
    const AttrId a = selected_[k];
    if (space.IsNumeric(a)) continue;
    const size_t card = space.Cardinality(a);
    const DissimilarityMatrix& m = space.matrix(a);
    const ValueId q = query.values[a];
    NMRS_DCHECK(q < card) << "query value out of domain";

    from_offset_[k] = static_cast<ptrdiff_t>(off);
    std::memcpy(dists_.data() + off, m.RowFrom(q), card * sizeof(double));
    if (overlay_ != nullptr) overlay_->PatchRow(a, q, dists_.data() + off);
    off += card;

    to_offset_[k] = static_cast<ptrdiff_t>(off);
    std::memcpy(dists_.data() + off, m.ColumnTo(q), card * sizeof(double));
    if (overlay_ != nullptr) overlay_->PatchColumn(a, q, dists_.data() + off);
    off += card;

    cols_offset_[k] = static_cast<ptrdiff_t>(col_off);
    const bool patch = overlay_ != nullptr && overlay_->TouchesAttr(a);
    for (ValueId v = 0; v < card; ++v) {
      if (patch && overlay_->TouchesColumn(a, v)) {
        double* copy = dists_.data() + off;
        std::memcpy(copy, m.ColumnTo(v), card * sizeof(double));
        overlay_->PatchColumn(a, v, copy);
        cols_[col_off + v] = copy;
        off += card;
      } else {
        cols_[col_off + v] = m.ColumnTo(v);
      }
    }
    col_off += card;
  }
  NMRS_DCHECK(off == total);
  NMRS_DCHECK(col_off == num_cols);
}

}  // namespace nmrs
