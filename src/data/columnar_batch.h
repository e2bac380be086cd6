#ifndef NMRS_DATA_COLUMNAR_BATCH_H_
#define NMRS_DATA_COLUMNAR_BATCH_H_

#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "data/object.h"

namespace nmrs {

/// Column-major (SoA) view of a decoded RowBatch: one contiguous ValueId
/// column per attribute and, when the batch carries numerics, one
/// contiguous double column per attribute. Built once per loaded batch and
/// read many times by the block dominance kernels (core/dominance_kernel.h):
/// with a candidate X fixed, the per-attribute check reads
/// d_a(y_a, x_a) = ColumnTo(x_a)[y_a], so a contiguous y_a column turns the
/// inner loop into a gather from one matrix column — the memory-layout
/// shape SIMD gathers want. The row-major RowBatch stays the canonical
/// decode target; this is a derived copy, rebuilt by Build() and never
/// written back.
class ColumnarBatch {
 public:
  ColumnarBatch() = default;

  /// Rebuilds the SoA view from `rows` (one transpose pass, O(n*m)).
  /// Any previously built contents are discarded. `rows` stays reachable
  /// through source().
  void Build(const RowBatch& rows);

  /// The row-major batch the view was built from, or null after
  /// BuildFromColumns. Borrowed: valid while that batch is alive and holds
  /// the rows it held at Build. The dominance kernels probe it for short
  /// scans, where one row is one cache line.
  const RowBatch* source() const { return source_; }

  size_t size() const { return num_rows_; }
  size_t num_attrs() const { return num_attrs_; }
  bool has_numerics() const { return has_numerics_; }

  const RowId* ids() const { return ids_.data(); }
  RowId id(size_t i) const { return ids_[i]; }

  /// Contiguous value-id column of attribute `a`, length size().
  const ValueId* values(AttrId a) const {
    NMRS_DCHECK(a < num_attrs_);
    return values_.data() + static_cast<size_t>(a) * num_rows_;
  }

  /// Contiguous numeric column of attribute `a`; null when the underlying
  /// batch has no numerics. Only entries of numeric attributes are
  /// meaningful (mirrors RowBatch).
  const double* numerics(AttrId a) const {
    NMRS_DCHECK(a < num_attrs_);
    return has_numerics_
               ? numerics_.data() + static_cast<size_t>(a) * num_rows_
               : nullptr;
  }

  /// Builds directly from parallel arrays (used by the TRS leaf blocks,
  /// which have no RowBatch): column `a` is copied from `columns[a]`,
  /// ids from `ids`. No numerics.
  void BuildFromColumns(size_t num_rows,
                        const std::vector<std::vector<ValueId>>& columns,
                        const std::vector<RowId>& ids);

 private:
  const RowBatch* source_ = nullptr;
  size_t num_rows_ = 0;
  size_t num_attrs_ = 0;
  bool has_numerics_ = false;
  std::vector<RowId> ids_;
  std::vector<ValueId> values_;    // [a * num_rows_ + i]
  std::vector<double> numerics_;   // [a * num_rows_ + i], empty if none
};

}  // namespace nmrs

#endif  // NMRS_DATA_COLUMNAR_BATCH_H_
