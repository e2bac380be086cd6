#include "data/dataset.h"

#include <string>

namespace nmrs {

Dataset::Dataset(Schema schema) : schema_(std::move(schema)) {
  NMRS_CHECK(schema_.Validate().ok());
  if (schema_.NumNumeric() > 0) {
    bucketizers_.resize(schema_.num_attributes());
    for (AttrId i = 0; i < schema_.num_attributes(); ++i) {
      const auto& a = schema_.attribute(i);
      if (a.is_numeric) {
        bucketizers_[i].emplace(a.range, a.cardinality);
      }
    }
  }
}

void Dataset::Reserve(uint64_t rows) {
  values_.reserve(rows * schema_.num_attributes());
  if (has_numerics()) numerics_.reserve(rows * schema_.num_attributes());
}

void Dataset::AppendCategoricalRow(const std::vector<ValueId>& values) {
  NMRS_CHECK_EQ(schema_.NumNumeric(), 0u);
  NMRS_CHECK_EQ(values.size(), schema_.num_attributes());
  values_.insert(values_.end(), values.begin(), values.end());
  ++num_rows_;
}

void Dataset::AppendRow(const std::vector<ValueId>& values,
                        const std::vector<double>& numerics) {
  const size_t m = schema_.num_attributes();
  NMRS_CHECK_EQ(values.size(), m);
  if (has_numerics()) {
    NMRS_CHECK_EQ(numerics.size(), m);
    for (AttrId i = 0; i < m; ++i) {
      if (bucketizers_[i].has_value()) {
        values_.push_back(bucketizers_[i]->BucketOf(numerics[i]));
        numerics_.push_back(numerics[i]);
      } else {
        values_.push_back(values[i]);
        numerics_.push_back(0.0);
      }
    }
  } else {
    values_.insert(values_.end(), values.begin(), values.end());
  }
  ++num_rows_;
}

Object Dataset::GetObject(RowId row) const {
  NMRS_DCHECK(row < num_rows_);
  const size_t m = schema_.num_attributes();
  Object obj;
  obj.values.assign(RowValues(row), RowValues(row) + m);
  if (has_numerics()) {
    obj.numerics.assign(RowNumerics(row), RowNumerics(row) + m);
  } else {
    obj.numerics.assign(m, 0.0);
  }
  return obj;
}

Dataset Dataset::Permuted(const std::vector<RowId>& order) const {
  NMRS_CHECK_EQ(order.size(), num_rows_);
  Dataset out(schema_);
  out.Reserve(num_rows_);
  const size_t m = schema_.num_attributes();
  for (RowId src : order) {
    NMRS_CHECK(src < num_rows_);
    out.values_.insert(out.values_.end(), RowValues(src), RowValues(src) + m);
    if (has_numerics()) {
      out.numerics_.insert(out.numerics_.end(), RowNumerics(src),
                           RowNumerics(src) + m);
    }
    ++out.num_rows_;
  }
  return out;
}

double Dataset::Density() const {
  const double space = schema_.SpaceSize();
  return space > 0 ? static_cast<double>(num_rows_) / space : 0.0;
}

Status Dataset::Validate() const {
  const size_t m = schema_.num_attributes();
  for (RowId r = 0; r < num_rows_; ++r) {
    for (AttrId a = 0; a < m; ++a) {
      const AttributeInfo& info = schema_.attribute(a);
      if (info.is_numeric && !info.range.Contains(Numeric(r, a))) {
        return Status::Corruption(
            "row " + std::to_string(r) + " attr " + std::to_string(a) +
            " numeric value " + std::to_string(Numeric(r, a)) +
            " outside its range [" + std::to_string(info.range.lo) + ", " +
            std::to_string(info.range.hi) + "]");
      }
      if (Value(r, a) >= schema_.attribute(a).cardinality) {
        return Status::Corruption(
            "row " + std::to_string(r) + " attr " + std::to_string(a) +
            " value " + std::to_string(Value(r, a)) + " out of domain " +
            std::to_string(schema_.attribute(a).cardinality));
      }
    }
  }
  return Status::OK();
}

Object Dataset::MakeObject(const std::vector<ValueId>& values,
                           const std::vector<double>& numerics) const {
  const size_t m = schema_.num_attributes();
  NMRS_CHECK_EQ(values.size(), m);
  Object obj;
  obj.values.resize(m);
  obj.numerics.assign(m, 0.0);
  for (AttrId i = 0; i < m; ++i) {
    if (!bucketizers_.empty() && bucketizers_[i].has_value()) {
      NMRS_CHECK_EQ(numerics.size(), m);
      obj.values[i] = bucketizers_[i]->BucketOf(numerics[i]);
      obj.numerics[i] = numerics[i];
    } else {
      obj.values[i] = values[i];
    }
  }
  return obj;
}

}  // namespace nmrs
