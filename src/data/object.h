#ifndef NMRS_DATA_OBJECT_H_
#define NMRS_DATA_OBJECT_H_

#include <string>
#include <vector>

#include "common/types.h"

namespace nmrs {

/// One object (a database row or a query): for every attribute a ValueId
/// (the categorical value id, or the discretization-bucket id for numeric
/// attributes) plus, for numeric attributes, the exact value. Both vectors
/// are sized to the schema's attribute count; `numerics[i]` is meaningful
/// only where attribute i is numeric.
struct Object {
  std::vector<ValueId> values;
  std::vector<double> numerics;

  Object() = default;
  explicit Object(std::vector<ValueId> v)
      : values(std::move(v)), numerics(values.size(), 0.0) {}
  Object(std::vector<ValueId> v, std::vector<double> nums)
      : values(std::move(v)), numerics(std::move(nums)) {}

  size_t num_attributes() const { return values.size(); }

  bool operator==(const Object& o) const = default;

  std::string ToString() const;
};

/// Struct-of-arrays batch of decoded rows: the unit the algorithms iterate
/// over after a page read. Keeps value ids contiguous for cache-friendly
/// dominance checks.
class RowBatch {
 public:
  RowBatch(size_t num_attrs, bool has_numerics)
      : num_attrs_(num_attrs), has_numerics_(has_numerics) {}

  size_t size() const { return ids_.size(); }
  size_t num_attrs() const { return num_attrs_; }
  bool has_numerics() const { return has_numerics_; }

  RowId id(size_t i) const { return ids_[i]; }
  ValueId value(size_t i, AttrId attr) const {
    return values_[i * num_attrs_ + attr];
  }
  double numeric(size_t i, AttrId attr) const {
    return numerics_[i * num_attrs_ + attr];
  }

  /// Pointer to the `num_attrs` contiguous value ids of row i.
  const ValueId* row_values(size_t i) const {
    return values_.data() + i * num_attrs_;
  }
  /// Pointer to the contiguous numeric values of row i (nullptr when the
  /// schema has no numeric attributes).
  const double* row_numerics(size_t i) const {
    return has_numerics_ ? numerics_.data() + i * num_attrs_ : nullptr;
  }

  /// Appends a row. `numerics` may be null when !has_numerics().
  void Append(RowId id, const ValueId* values, const double* numerics);

  /// Appends `n` zeroed rows in one resize and returns the index of the
  /// first; bulk decoders then fill them through the mutable accessors.
  size_t Grow(size_t n);
  RowId* mutable_ids() { return ids_.data(); }
  ValueId* mutable_row_values(size_t i) {
    return values_.data() + i * num_attrs_;
  }
  /// Null when !has_numerics().
  double* mutable_row_numerics(size_t i) {
    return has_numerics_ ? numerics_.data() + i * num_attrs_ : nullptr;
  }

  /// Materializes row i as an Object.
  Object ToObject(size_t i) const;

  void Clear();
  void Reserve(size_t rows);

 private:
  size_t num_attrs_;
  bool has_numerics_;
  std::vector<RowId> ids_;
  std::vector<ValueId> values_;
  std::vector<double> numerics_;
};

}  // namespace nmrs

#endif  // NMRS_DATA_OBJECT_H_
