#ifndef NMRS_SIM_SIMILARITY_SPACE_H_
#define NMRS_SIM_SIMILARITY_SPACE_H_

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/dissimilarity_matrix.h"
#include "sim/numeric_dissimilarity.h"

namespace nmrs {

/// Per-attribute dissimilarity registry for a dataset: attribute i is either
/// categorical (dense non-metric matrix over its domain) or numeric (scaled
/// absolute difference). Reverse-skyline algorithms read distances through
/// this object only.
class SimilaritySpace {
 public:
  SimilaritySpace() = default;

  /// Appends a categorical attribute backed by `matrix`.
  void AddCategorical(DissimilarityMatrix matrix) {
    attrs_.push_back(Attr{std::move(matrix), NumericDissimilarity(), false});
  }

  /// Appends a numeric attribute. Numeric attrs carry no matrix at all
  /// (nullopt, not a placeholder allocation): Cardinality()/CatDist()/
  /// matrix() are categorical-only and DCHECK accordingly.
  void AddNumeric(NumericDissimilarity d) {
    attrs_.push_back(Attr{std::nullopt, d, true});
  }

  size_t num_attributes() const { return attrs_.size(); }

  bool IsNumeric(AttrId attr) const {
    NMRS_DCHECK(attr < attrs_.size());
    return attrs_[attr].is_numeric;
  }

  /// Domain size of a categorical attribute (QueryDistanceTable sizes its
  /// per-attribute rows from this).
  size_t Cardinality(AttrId attr) const {
    NMRS_DCHECK(attr < attrs_.size() && !attrs_[attr].is_numeric);
    return attrs_[attr].matrix->cardinality();
  }

  /// Categorical dissimilarity d_attr(a, b).
  double CatDist(AttrId attr, ValueId a, ValueId b) const {
    NMRS_DCHECK(attr < attrs_.size() && !attrs_[attr].is_numeric);
    return attrs_[attr].matrix->Dist(a, b);
  }

  /// Numeric dissimilarity d_attr(x, y).
  double NumDist(AttrId attr, double x, double y) const {
    NMRS_DCHECK(attr < attrs_.size() && attrs_[attr].is_numeric);
    return attrs_[attr].numeric.Dist(x, y);
  }

  const DissimilarityMatrix& matrix(AttrId attr) const {
    NMRS_DCHECK(attr < attrs_.size() && !attrs_[attr].is_numeric);
    return *attrs_[attr].matrix;
  }

  const NumericDissimilarity& numeric(AttrId attr) const {
    NMRS_DCHECK(attr < attrs_.size() && attrs_[attr].is_numeric);
    return attrs_[attr].numeric;
  }

  /// Grows categorical attribute `attr`'s domain by one value with the
  /// given distances to/from the existing values (see
  /// DissimilarityMatrix::AppendValue). O(k^2) for that one attribute —
  /// the append-only alternative to rebuilding the whole space when a
  /// freshly inserted object carries a never-seen domain value. Returns
  /// the new ValueId. The space must not be shared with a running query.
  ///
  /// Numeric attributes never need this: NumericDissimilarity is a pure
  /// function of the two doubles and every in-range value has a bucket, so
  /// numeric inserts are O(1) with no re-derivation at all.
  ValueId AppendCategoricalValue(AttrId attr, const std::vector<double>& to_new,
                                 const std::vector<double>& from_new,
                                 double self = 0.0) {
    NMRS_DCHECK(attr < attrs_.size() && !attrs_[attr].is_numeric);
    return attrs_[attr].matrix->AppendValue(to_new, from_new, self);
  }

  /// Convenience for the common object-insert flow: for each categorical
  /// attribute whose value id in `values` is exactly one past the current
  /// domain, grows that domain by one using `dists[attr]` as the symmetric
  /// distance vector (d(a,new) == d(new,a) == dists[attr][a]). Attributes
  /// whose values are already in-domain are untouched; `dists` entries for
  /// them may be empty. Returns InvalidArgument when a value would skip
  /// ids or a distance vector has the wrong length.
  Status AddObjectValue(const std::vector<ValueId>& values,
                        const std::vector<std::vector<double>>& dists);

 private:
  struct Attr {
    std::optional<DissimilarityMatrix> matrix;  // engaged iff categorical
    NumericDissimilarity numeric;
    bool is_numeric;
  };

  std::vector<Attr> attrs_;
};

/// Builds an all-categorical space with one random matrix per cardinality in
/// `cardinalities`, mirroring the paper's experimental setup.
SimilaritySpace MakeRandomSpace(const std::vector<size_t>& cardinalities,
                                Rng& rng,
                                const RandomMatrixOptions& opts = {});

}  // namespace nmrs

#endif  // NMRS_SIM_SIMILARITY_SPACE_H_
