#ifndef NMRS_DATA_BUCKETIZER_H_
#define NMRS_DATA_BUCKETIZER_H_

#include <cstddef>

#include "common/check.h"
#include "common/types.h"
#include "sim/numeric_dissimilarity.h"

namespace nmrs {

/// Equal-width discretization of a numeric range into buckets (paper §6).
/// Values outside the range are clamped into the first/last bucket, so
/// BucketOf is total; only query values may lie outside it (stored rows are
/// validated against the range). Every value inside the range lies in the
/// interval of its bucket, boundary values included: neighbouring buckets
/// share one computed boundary, and BucketOf corrects the rounding of its
/// division against those boundaries. Searches that bound a stored value
/// by its bucket rely on this.
class Bucketizer {
 public:
  Bucketizer(Interval range, size_t num_buckets)
      : range_(range), num_buckets_(num_buckets) {
    NMRS_CHECK_GT(num_buckets, 0u);
    NMRS_CHECK_GE(range.hi, range.lo);
    width_ = range.width() > 0 ? range.width() / static_cast<double>(num_buckets)
                               : 1.0;
  }

  size_t num_buckets() const { return num_buckets_; }
  const Interval& range() const { return range_; }

  ValueId BucketOf(double x) const {
    if (x <= range_.lo) return 0;
    if (x >= range_.hi) return static_cast<ValueId>(num_buckets_ - 1);
    auto b = static_cast<size_t>((x - range_.lo) / width_);
    if (b >= num_buckets_) b = num_buckets_ - 1;
    if (b > 0 && x < Boundary(b)) --b;
    if (b + 1 < num_buckets_ && x > Boundary(b + 1)) ++b;
    return static_cast<ValueId>(b);
  }

  /// Closed interval [lo, hi] covered by bucket `b`.
  Interval BucketInterval(ValueId b) const {
    NMRS_DCHECK(b < num_buckets_);
    return Interval{Boundary(b),
                    b + 1 == num_buckets_ ? range_.hi : Boundary(b + 1)};
  }

 private:
  // Lower edge of bucket b (b < num_buckets_), shared with the upper edge
  // of bucket b - 1.
  double Boundary(size_t b) const {
    return range_.lo + width_ * static_cast<double>(b);
  }

  Interval range_;
  size_t num_buckets_;
  double width_;
};

}  // namespace nmrs

#endif  // NMRS_DATA_BUCKETIZER_H_
