#include "data/object.h"

#include <sstream>

#include "common/check.h"

namespace nmrs {

std::string Object::ToString() const {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) os << ",";
    os << values[i];
  }
  os << "]";
  return os.str();
}

void RowBatch::Append(RowId id, const ValueId* values,
                      const double* numerics) {
  ids_.push_back(id);
  values_.insert(values_.end(), values, values + num_attrs_);
  if (has_numerics_) {
    NMRS_DCHECK(numerics != nullptr);
    numerics_.insert(numerics_.end(), numerics, numerics + num_attrs_);
  }
}

size_t RowBatch::Grow(size_t n) {
  const size_t first = ids_.size();
  ids_.resize(first + n);
  values_.resize((first + n) * num_attrs_);
  if (has_numerics_) numerics_.resize((first + n) * num_attrs_);
  return first;
}

Object RowBatch::ToObject(size_t i) const {
  NMRS_DCHECK(i < size());
  Object obj;
  obj.values.assign(row_values(i), row_values(i) + num_attrs_);
  if (has_numerics_) {
    obj.numerics.assign(row_numerics(i), row_numerics(i) + num_attrs_);
  } else {
    obj.numerics.assign(num_attrs_, 0.0);
  }
  return obj;
}

void RowBatch::Clear() {
  ids_.clear();
  values_.clear();
  numerics_.clear();
}

void RowBatch::Reserve(size_t rows) {
  ids_.reserve(rows);
  values_.reserve(rows * num_attrs_);
  if (has_numerics_) numerics_.reserve(rows * num_attrs_);
}

}  // namespace nmrs
