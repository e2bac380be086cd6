#include "data/columnar_batch.h"

#include <algorithm>
#include <cstring>

namespace nmrs {

void ColumnarBatch::Build(const RowBatch& rows) {
  source_ = &rows;
  num_rows_ = rows.size();
  num_attrs_ = rows.num_attrs();
  has_numerics_ = rows.has_numerics();
  ids_.resize(num_rows_);
  values_.resize(num_attrs_ * num_rows_);
  numerics_.resize(has_numerics_ ? num_attrs_ * num_rows_ : 0);
  run_starts_.clear();
  run_of_.resize(num_rows_);
  for (size_t i = 0; i < num_rows_; ++i) {
    ids_[i] = rows.id(i);
    // A run is a set of rows every kernel load sees as the same bytes, so
    // numerics compare bitwise.
    const ValueId* v = rows.row_values(i);
    const ValueId* pv = i > 0 ? rows.row_values(i - 1) : v;
    uint64_t diff = i == 0;
    for (size_t a = 0; a < num_attrs_; ++a) {
      values_[a * num_rows_ + i] = v[a];
      diff |= v[a] ^ pv[a];
    }
    if (has_numerics_) {
      const double* nv = rows.row_numerics(i);
      const double* pnv = i > 0 ? rows.row_numerics(i - 1) : nv;
      for (size_t a = 0; a < num_attrs_; ++a) {
        numerics_[a * num_rows_ + i] = nv[a];
        uint64_t x, y;
        std::memcpy(&x, nv + a, sizeof(x));
        std::memcpy(&y, pnv + a, sizeof(y));
        diff |= x ^ y;
      }
    }
    if (diff != 0) run_starts_.push_back(static_cast<uint32_t>(i));
    run_of_[i] = static_cast<uint32_t>(run_starts_.size() - 1);
  }
  run_starts_.push_back(static_cast<uint32_t>(num_rows_));
  BuildHeads();
}

void ColumnarBatch::BuildHeads() {
  const size_t runs = num_runs();
  head_values_.clear();
  head_numerics_.clear();
  if (runs == num_rows_) return;  // the heads are the rows
  head_values_.resize(num_attrs_ * runs);
  head_numerics_.resize(has_numerics_ ? num_attrs_ * runs : 0);
  for (size_t a = 0; a < num_attrs_; ++a) {
    const ValueId* col = values_.data() + a * num_rows_;
    ValueId* head = head_values_.data() + a * runs;
    for (size_t r = 0; r < runs; ++r) head[r] = col[run_starts_[r]];
    if (has_numerics_) {
      const double* ncol = numerics_.data() + a * num_rows_;
      double* nhead = head_numerics_.data() + a * runs;
      for (size_t r = 0; r < runs; ++r) nhead[r] = ncol[run_starts_[r]];
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
  run_starts_.resize(num_rows_ + 1);
  run_of_.resize(num_rows_);
  for (size_t i = 0; i <= num_rows_; ++i) {
    run_starts_[i] = static_cast<uint32_t>(i);
  }
  for (size_t i = 0; i < num_rows_; ++i) run_of_[i] = static_cast<uint32_t>(i);
  BuildHeads();
}

}  // namespace nmrs
