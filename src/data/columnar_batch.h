#ifndef NMRS_DATA_COLUMNAR_BATCH_H_
#define NMRS_DATA_COLUMNAR_BATCH_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "data/object.h"

namespace nmrs {

/// Column-major (SoA) view of a batch of rows: one contiguous ValueId
/// column per attribute and, when the batch carries numerics, one
/// contiguous double column per attribute. Built once per loaded batch and
/// read many times by the block dominance kernels (core/dominance_kernel.h):
/// with a candidate X fixed, the per-attribute check reads
/// d_a(y_a, x_a) = ColumnTo(x_a)[y_a], so a contiguous y_a column turns the
/// inner loop into a gather from one matrix column — the memory-layout
/// shape SIMD gathers want. It is a derived copy, never written back:
/// built from a decoded RowBatch (Build), decoded straight from one page
/// (RowCodec::DecodeColumns, the page segments of data/segment_store.h),
/// or assembled from such segments (Assemble).
///
/// ## Run index
///
/// Every build also records the runs of adjacent value-identical rows
/// (every categorical value equal and every numeric bitwise equal; ids may
/// differ). Sorted data (SRS) puts duplicates next to each other, and every
/// row of a run has the same verdict and check count against any candidate,
/// so the kernels test a run once through its head (first row): their
/// lanes are always run heads. A batch with no adjacent duplicates has one
/// run per row, and its head columns are the row columns themselves.
class ColumnarBatch {
 public:
  ColumnarBatch() = default;

  /// Rebuilds the SoA view and the run index from `rows` (O(n*m)). Any
  /// previously built contents are discarded. `rows` stays reachable
  /// through source().
  void Build(const RowBatch& rows);

  /// The row-major batch the view was built from, or null for a view that
  /// was decoded, assembled or built from columns. Borrowed: valid while
  /// that batch is alive and holds the rows it held at Build. The dominance
  /// kernels probe it for short scans, where one row is one cache line;
  /// without it they probe the columns, with the same verdicts and counts.
  const RowBatch* source() const { return source_; }

  /// Reserves room for views of up to `rows` rows of this shape, head
  /// copies included, so that a later Resize, IndexRuns or Assemble of at
  /// most that many rows allocates nothing. Lets a caller place the memory
  /// on its own thread before other threads fill the view.
  void Reserve(size_t rows, size_t num_attrs, bool has_numerics);

  /// Sizes the view for `num_rows` rows with no source batch, for a decoder
  /// to fill through the mutable_* columns and finish with IndexRuns().
  void Resize(size_t num_rows, size_t num_attrs, bool has_numerics);
  RowId* mutable_ids() { return ids_.data(); }
  ValueId* mutable_values(AttrId a) {
    NMRS_DCHECK(a < num_attrs_);
    return values_.data() + static_cast<size_t>(a) * num_rows_;
  }
  double* mutable_numerics(AttrId a) {
    NMRS_DCHECK(a < num_attrs_ && has_numerics_);
    return numerics_.data() + static_cast<size_t>(a) * num_rows_;
  }

  /// Builds the run index and the head columns from the filled columns.
  void IndexRuns();

  /// Concatenates `parts` in order, with no source batch: one copy per
  /// column per part, the run index shifted, and a run that crosses the
  /// boundary between two parts merged into one. The result equals Build
  /// over the concatenation of the parts' rows, field by field. Every part
  /// must have the same shape.
  void Assemble(const std::vector<const ColumnarBatch*>& parts);

  /// Copies row i into row-major buffers of num_attrs() entries each;
  /// `numerics` is written only when has_numerics().
  void GatherRow(size_t i, ValueId* values, double* numerics) const;

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

  /// Number of runs; run r holds rows [run_start(r), run_start(r + 1)).
  size_t num_runs() const {
    return run_starts_.empty() ? 0 : run_starts_.size() - 1;
  }
  /// num_runs() + 1 ascending row offsets, the last one size().
  const uint32_t* run_starts() const { return run_starts_.data(); }
  size_t run_start(size_t r) const { return run_starts_[r]; }
  /// The run holding row i.
  size_t run_of(size_t i) const { return run_of_[i]; }

  /// Value-id column of attribute `a` over the run heads, length
  /// num_runs(). When every run is one row this is values(a), not a copy.
  const ValueId* head_values(AttrId a) const {
    NMRS_DCHECK(a < num_attrs_);
    const ValueId* base =
        head_values_.empty() ? values_.data() : head_values_.data();
    return base + static_cast<size_t>(a) * num_runs();
  }
  /// Numeric column of attribute `a` over the run heads; null when the
  /// batch has no numerics. When every run is one row this is numerics(a).
  const double* head_numerics(AttrId a) const {
    NMRS_DCHECK(a < num_attrs_);
    if (!has_numerics_) return nullptr;
    const double* base =
        head_numerics_.empty() ? numerics_.data() : head_numerics_.data();
    return base + static_cast<size_t>(a) * num_runs();
  }

  /// Builds directly from parallel arrays (used by the TRS leaf blocks,
  /// which have no RowBatch): column `a` is copied from `columns[a]`,
  /// ids from `ids`. No numerics; every row is its own run.
  void BuildFromColumns(size_t num_rows,
                        const std::vector<std::vector<ValueId>>& columns,
                        const std::vector<RowId>& ids);

 private:
  void BuildHeads();
  // Whether rows i and j hold the same values, numerics compared bitwise:
  // the rows every kernel load sees as the same bytes.
  bool SameRow(size_t i, size_t j) const;

  const RowBatch* source_ = nullptr;
  size_t num_rows_ = 0;
  size_t num_attrs_ = 0;
  bool has_numerics_ = false;
  std::vector<RowId> ids_;
  std::vector<ValueId> values_;    // [a * num_rows_ + i]
  std::vector<double> numerics_;   // [a * num_rows_ + i], empty if none
  std::vector<uint32_t> run_starts_;   // num_runs() + 1 entries
  std::vector<uint32_t> run_of_;       // per row
  // Head copies, kept only when some run is longer than one row.
  std::vector<ValueId> head_values_;   // [a * num_runs() + r]
  std::vector<double> head_numerics_;  // [a * num_runs() + r], may be empty
};

}  // namespace nmrs

#endif  // NMRS_DATA_COLUMNAR_BATCH_H_
