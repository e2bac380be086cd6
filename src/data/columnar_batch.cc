#include "data/columnar_batch.h"

#include <algorithm>
#include <cstring>

namespace nmrs {

void ColumnarBatch::Build(const RowBatch& rows) {
  const size_t n = rows.size();
  const size_t m = rows.num_attrs();
  Resize(n, m, rows.has_numerics());
  source_ = &rows;
  for (size_t i = 0; i < n; ++i) {
    ids_[i] = rows.id(i);
    const ValueId* v = rows.row_values(i);
    for (size_t a = 0; a < m; ++a) values_[a * n + i] = v[a];
    if (has_numerics_) {
      const double* nv = rows.row_numerics(i);
      for (size_t a = 0; a < m; ++a) numerics_[a * n + i] = nv[a];
    }
  }
  IndexRuns();
}

void ColumnarBatch::Reserve(size_t rows, size_t num_attrs,
                            bool has_numerics) {
  const size_t cells = rows * num_attrs;
  ids_.reserve(rows);
  values_.reserve(cells);
  head_values_.reserve(cells);
  if (has_numerics) {
    numerics_.reserve(cells);
    head_numerics_.reserve(cells);
  }
  run_starts_.reserve(rows + 1);
  run_of_.reserve(rows);
}

void ColumnarBatch::Resize(size_t num_rows, size_t num_attrs,
                           bool has_numerics) {
  source_ = nullptr;
  num_rows_ = num_rows;
  num_attrs_ = num_attrs;
  has_numerics_ = has_numerics;
  ids_.resize(num_rows_);
  values_.resize(num_attrs_ * num_rows_);
  numerics_.resize(has_numerics_ ? num_attrs_ * num_rows_ : 0);
  run_of_.resize(num_rows_);
}

bool ColumnarBatch::SameRow(size_t i, size_t j) const {
  for (size_t a = 0; a < num_attrs_; ++a) {
    if (values_[a * num_rows_ + i] != values_[a * num_rows_ + j]) {
      return false;
    }
  }
  if (has_numerics_) {
    for (size_t a = 0; a < num_attrs_; ++a) {
      uint64_t x = 0;
      uint64_t y = 0;
      std::memcpy(&x, &numerics_[a * num_rows_ + i], sizeof(x));
      std::memcpy(&y, &numerics_[a * num_rows_ + j], sizeof(y));
      if (x != y) return false;
    }
  }
  return true;
}

void ColumnarBatch::IndexRuns() {
  run_starts_.clear();
  for (size_t i = 0; i < num_rows_; ++i) {
    if (i == 0 || !SameRow(i - 1, i)) {
      run_starts_.push_back(static_cast<uint32_t>(i));
    }
    run_of_[i] = static_cast<uint32_t>(run_starts_.size() - 1);
  }
  run_starts_.push_back(static_cast<uint32_t>(num_rows_));
  BuildHeads();
}

void ColumnarBatch::Assemble(const std::vector<const ColumnarBatch*>& parts) {
  size_t n = 0;
  for (const ColumnarBatch* part : parts) n += part->size();
  const size_t m = parts.empty() ? 0 : parts[0]->num_attrs();
  Resize(n, m, !parts.empty() && parts[0]->has_numerics());
  run_starts_.clear();
  size_t offset = 0;
  for (const ColumnarBatch* part : parts) {
    NMRS_CHECK(part->num_attrs() == m &&
               part->has_numerics() == has_numerics_)
        << "assembled parts differ in shape";
    const size_t rows = part->size();
    if (rows == 0) continue;
    std::copy(part->ids(), part->ids() + rows, ids_.begin() + offset);
    for (size_t a = 0; a < m; ++a) {
      std::copy(part->values(a), part->values(a) + rows,
                values_.begin() + a * n + offset);
      if (has_numerics_) {
        std::copy(part->numerics(a), part->numerics(a) + rows,
                  numerics_.begin() + a * n + offset);
      }
    }
    // A run that continues across the boundary keeps its run number: the
    // part's first run merges into the previous part's last one.
    const size_t merged = offset > 0 && SameRow(offset - 1, offset) ? 1 : 0;
    const size_t base = run_starts_.size() - merged;
    for (size_t r = merged; r < part->num_runs(); ++r) {
      run_starts_.push_back(
          static_cast<uint32_t>(offset + part->run_start(r)));
    }
    for (size_t i = 0; i < rows; ++i) {
      run_of_[offset + i] = static_cast<uint32_t>(base + part->run_of(i));
    }
    offset += rows;
  }
  run_starts_.push_back(static_cast<uint32_t>(n));
  BuildHeads();
}

void ColumnarBatch::GatherRow(size_t i, ValueId* values,
                              double* numerics) const {
  for (size_t a = 0; a < num_attrs_; ++a) {
    values[a] = values_[a * num_rows_ + i];
  }
  if (has_numerics_) {
    for (size_t a = 0; a < num_attrs_; ++a) {
      numerics[a] = numerics_[a * num_rows_ + i];
    }
  }
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
  Resize(num_rows, columns.size(), /*has_numerics=*/false);
  std::copy(ids.begin(), ids.end(), ids_.begin());
  for (size_t a = 0; a < num_attrs_; ++a) {
    NMRS_CHECK_EQ(columns[a].size(), num_rows);
    std::copy(columns[a].begin(), columns[a].end(),
              values_.begin() + a * num_rows_);
  }
  run_starts_.resize(num_rows_ + 1);
  for (size_t i = 0; i <= num_rows_; ++i) {
    run_starts_[i] = static_cast<uint32_t>(i);
  }
  for (size_t i = 0; i < num_rows_; ++i) run_of_[i] = static_cast<uint32_t>(i);
  BuildHeads();
}

}  // namespace nmrs
