#ifndef NMRS_DATA_DATASET_H_
#define NMRS_DATA_DATASET_H_

#include <optional>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "common/types.h"
#include "data/bucketizer.h"
#include "data/object.h"
#include "data/schema.h"

namespace nmrs {

/// In-memory object table: n rows over the schema's m attributes, row-major
/// value ids plus exact numeric values for numeric attributes. This is the
/// canonical source a StoredDataset is serialized from; query processing
/// then works off the (simulated) disk representation.
class Dataset {
 public:
  explicit Dataset(Schema schema);

  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return num_rows_; }
  size_t num_attributes() const { return schema_.num_attributes(); }
  bool has_numerics() const { return !bucketizers_.empty(); }

  void Reserve(uint64_t rows);

  /// Appends a row of categorical value ids (schema must be all-categorical).
  void AppendCategoricalRow(const std::vector<ValueId>& values);

  /// Appends a mixed row: `values[i]` is used for categorical attributes;
  /// `numerics[i]` for numeric attributes (their bucket id is derived from
  /// the schema's range/bucket count and stored in the value table).
  void AppendRow(const std::vector<ValueId>& values,
                 const std::vector<double>& numerics);

  ValueId Value(RowId row, AttrId attr) const {
    NMRS_DCHECK(row < num_rows_);
    return values_[row * schema_.num_attributes() + attr];
  }

  double Numeric(RowId row, AttrId attr) const {
    NMRS_DCHECK(row < num_rows_ && has_numerics());
    return numerics_[row * schema_.num_attributes() + attr];
  }

  const ValueId* RowValues(RowId row) const {
    return values_.data() + row * schema_.num_attributes();
  }
  const double* RowNumerics(RowId row) const {
    return has_numerics() ? numerics_.data() + row * schema_.num_attributes()
                          : nullptr;
  }

  Object GetObject(RowId row) const;

  /// New dataset whose row r is this dataset's row order[r]. `order` must be
  /// a permutation of [0, num_rows).
  Dataset Permuted(const std::vector<RowId>& order) const;

  /// n / |value space| (paper §5.2).
  double Density() const;

  /// Checks every categorical value id is inside its domain and every
  /// numeric value is finite and inside its attribute's [lo, hi] range (a
  /// stored value outside it would fall outside its bucket's bounds, which
  /// the AL-Tree searches rely on; see Bucketizer).
  Status Validate() const;

  /// Builds the Object for a query with given per-attribute numeric values /
  /// value ids, deriving bucket ids for numeric attributes.
  Object MakeObject(const std::vector<ValueId>& values,
                    const std::vector<double>& numerics) const;

 private:
  Schema schema_;
  uint64_t num_rows_ = 0;
  std::vector<ValueId> values_;
  std::vector<double> numerics_;  // empty when schema has no numeric attrs
  std::vector<std::optional<Bucketizer>> bucketizers_;  // per numeric attr
};

}  // namespace nmrs

#endif  // NMRS_DATA_DATASET_H_
