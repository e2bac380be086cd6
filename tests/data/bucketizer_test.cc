#include "data/bucketizer.h"

#include <gtest/gtest.h>

namespace nmrs {
namespace {

TEST(BucketizerTest, EqualWidthBuckets) {
  Bucketizer b({0.0, 100.0}, 4);
  EXPECT_EQ(b.BucketOf(0.0), 0u);
  EXPECT_EQ(b.BucketOf(24.9), 0u);
  EXPECT_EQ(b.BucketOf(25.1), 1u);
  EXPECT_EQ(b.BucketOf(75.1), 3u);
  EXPECT_EQ(b.BucketOf(100.0), 3u);
}

TEST(BucketizerTest, ClampsOutOfRange) {
  Bucketizer b({0.0, 10.0}, 5);
  EXPECT_EQ(b.BucketOf(-100.0), 0u);
  EXPECT_EQ(b.BucketOf(1e9), 4u);
}

TEST(BucketizerTest, IntervalsTileTheRange) {
  Bucketizer b({-5.0, 15.0}, 8);
  double prev_hi = -5.0;
  for (ValueId i = 0; i < 8; ++i) {
    Interval iv = b.BucketInterval(i);
    EXPECT_DOUBLE_EQ(iv.lo, prev_hi);
    EXPECT_GT(iv.hi, iv.lo);
    prev_hi = iv.hi;
  }
  EXPECT_DOUBLE_EQ(prev_hi, 15.0);
}

TEST(BucketizerTest, ValueLiesInItsBucketInterval) {
  Bucketizer b({0.0, 1.0}, 7);
  for (double x = 0.0; x <= 1.0; x += 0.01) {
    const Interval iv = b.BucketInterval(b.BucketOf(x));
    EXPECT_TRUE(iv.Contains(x)) << "x=" << x;
  }
}

TEST(BucketizerTest, BoundaryValuesLieInTheirBucket) {
  // Rounding in BucketOf's division used to put some values computed as
  // bucket boundaries one bucket off, outside that bucket's interval:
  // 70/9 over [0, 10] in 9 buckets landed in bucket 6, whose interval
  // ends just below it.
  EXPECT_TRUE(Bucketizer({0.0, 10.0}, 9)
                  .BucketInterval(Bucketizer({0.0, 10.0}, 9).BucketOf(70.0 / 9))
                  .Contains(70.0 / 9));
  for (double lo : {0.0, -3.0, 0.1, 100.0, -0.7}) {
    for (double width : {10.0, 1.0, 0.7, 3.0, 2.2}) {
      const double hi = lo + width;
      for (size_t n = 1; n <= 32; ++n) {
        const Bucketizer b({lo, hi}, n);
        for (size_t k = 0; k <= n; ++k) {
          const double step = (hi - lo) / static_cast<double>(n);
          for (double x : {lo + step * static_cast<double>(k),
                           lo + (hi - lo) * static_cast<double>(k) /
                                    static_cast<double>(n)}) {
            if (x < lo || x > hi) continue;
            EXPECT_TRUE(b.BucketInterval(b.BucketOf(x)).Contains(x))
                << "[" << lo << ", " << hi << "] n=" << n << " x=" << x;
          }
          if (k < n) {
            const Interval iv = b.BucketInterval(static_cast<ValueId>(k));
            EXPECT_TRUE(b.BucketInterval(b.BucketOf(iv.lo)).Contains(iv.lo));
            EXPECT_TRUE(b.BucketInterval(b.BucketOf(iv.hi)).Contains(iv.hi));
          }
        }
      }
    }
  }
}

TEST(BucketizerTest, SingleBucket) {
  Bucketizer b({3.0, 9.0}, 1);
  EXPECT_EQ(b.BucketOf(3.0), 0u);
  EXPECT_EQ(b.BucketOf(9.0), 0u);
  Interval iv = b.BucketInterval(0);
  EXPECT_DOUBLE_EQ(iv.lo, 3.0);
  EXPECT_DOUBLE_EQ(iv.hi, 9.0);
}

TEST(BucketizerTest, DegenerateRange) {
  Bucketizer b({5.0, 5.0}, 3);
  EXPECT_EQ(b.BucketOf(5.0), 0u);
  EXPECT_EQ(b.BucketOf(4.0), 0u);
  EXPECT_EQ(b.BucketOf(6.0), 2u);
}

}  // namespace
}  // namespace nmrs
