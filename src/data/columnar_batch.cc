#include "data/columnar_batch.h"

namespace nmrs {

void ColumnarBatch::Build(const RowBatch& rows) {
  source_ = &rows;
  num_rows_ = rows.size();
  num_attrs_ = rows.num_attrs();
  has_numerics_ = rows.has_numerics();
  ids_.resize(num_rows_);
  values_.resize(num_attrs_ * num_rows_);
  numerics_.resize(has_numerics_ ? num_attrs_ * num_rows_ : 0);
  for (size_t i = 0; i < num_rows_; ++i) {
    ids_[i] = rows.id(i);
    const ValueId* v = rows.row_values(i);
    for (size_t a = 0; a < num_attrs_; ++a) {
      values_[a * num_rows_ + i] = v[a];
    }
    if (has_numerics_) {
      const double* nv = rows.row_numerics(i);
      for (size_t a = 0; a < num_attrs_; ++a) {
        numerics_[a * num_rows_ + i] = nv[a];
      }
    }
  }
}

void ColumnarBatch::BuildFromColumns(
    size_t num_rows, const std::vector<std::vector<ValueId>>& columns,
    const std::vector<RowId>& ids) {
  NMRS_CHECK_EQ(ids.size(), num_rows);
  source_ = nullptr;
  num_rows_ = num_rows;
  num_attrs_ = columns.size();
  has_numerics_ = false;
  numerics_.clear();
  ids_ = ids;
  values_.resize(num_attrs_ * num_rows_);
  for (size_t a = 0; a < num_attrs_; ++a) {
    NMRS_CHECK_EQ(columns[a].size(), num_rows);
    std::copy(columns[a].begin(), columns[a].end(),
              values_.begin() + a * num_rows_);
  }
}

}  // namespace nmrs
