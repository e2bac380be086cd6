#include "sim/matrix_overlay.h"

#include <gtest/gtest.h>

#include "sim/numeric_dissimilarity.h"

namespace nmrs {
namespace {

SimilaritySpace MakeSpace(const std::vector<size_t>& cards, uint64_t seed,
                          bool symmetric = false) {
  Rng rng(seed);
  RandomMatrixOptions opts;
  opts.symmetric = symmetric;
  SimilaritySpace space;
  for (size_t k : cards) space.AddCategorical(MakeRandomMatrix(k, rng, opts));
  return space;
}

TEST(MatrixOverlayTest, EmptyOverlayIsTransparent) {
  SimilaritySpace space = MakeSpace({4, 6}, 1);
  MatrixOverlay overlay(space);
  EXPECT_TRUE(overlay.empty());
  EXPECT_EQ(overlay.num_entries(), 0u);
  for (AttrId a = 0; a < 2; ++a) {
    EXPECT_FALSE(overlay.TouchesAttr(a));
    for (ValueId x = 0; x < space.Cardinality(a); ++x) {
      EXPECT_FALSE(overlay.TouchesColumn(a, x));
      for (ValueId y = 0; y < space.Cardinality(a); ++y) {
        EXPECT_EQ(overlay.Dist(a, x, y), space.CatDist(a, x, y));
      }
    }
  }
}

TEST(MatrixOverlayTest, SetPatchesOneDirectionOnly) {
  SimilaritySpace space = MakeSpace({5}, 2);
  MatrixOverlay overlay(space);
  ASSERT_TRUE(overlay.Set(0, 1, 3, 7.5).ok());
  EXPECT_EQ(overlay.Dist(0, 1, 3), 7.5);
  // The reverse direction is untouched — overlays are as asymmetric as the
  // base matrices.
  EXPECT_EQ(overlay.Dist(0, 3, 1), space.CatDist(0, 3, 1));
  EXPECT_TRUE(overlay.TouchesColumn(0, 3));
  EXPECT_FALSE(overlay.TouchesColumn(0, 1));
  EXPECT_TRUE(overlay.TouchesRow(0, 1));
  EXPECT_FALSE(overlay.TouchesRow(0, 3));
}

TEST(MatrixOverlayTest, SetOverwritesExistingEntry) {
  SimilaritySpace space = MakeSpace({5}, 3);
  MatrixOverlay overlay(space);
  ASSERT_TRUE(overlay.Set(0, 2, 4, 1.0).ok());
  ASSERT_TRUE(overlay.Set(0, 2, 4, 2.0).ok());
  EXPECT_EQ(overlay.num_entries(), 1u);
  EXPECT_EQ(overlay.Dist(0, 2, 4), 2.0);
  // Both the row view (Dist) and the column view (PatchColumn) must see
  // the overwrite.
  std::vector<double> col(5);
  for (ValueId v = 0; v < 5; ++v) col[v] = space.CatDist(0, v, 4);
  overlay.PatchColumn(0, 4, col.data());
  EXPECT_EQ(col[2], 2.0);
}

TEST(MatrixOverlayTest, ValidationMirrorsSpaceConstruction) {
  SimilaritySpace space = MakeSpace({3}, 4);
  space.AddNumeric(NumericDissimilarity());
  MatrixOverlay overlay(space);
  EXPECT_TRUE(overlay.Set(5, 0, 1, 1.0).IsInvalidArgument())
      << "attr out of range";
  EXPECT_TRUE(overlay.Set(1, 0, 1, 1.0).IsInvalidArgument())
      << "numeric attr";
  EXPECT_TRUE(overlay.Set(0, 3, 1, 1.0).IsInvalidArgument())
      << "from out of domain";
  EXPECT_TRUE(overlay.Set(0, 0, 3, 1.0).IsInvalidArgument())
      << "to out of domain";
  EXPECT_TRUE(overlay.Set(0, 1, 1, 1.0).IsInvalidArgument())
      << "diagonal";
  EXPECT_TRUE(overlay.Set(0, 0, 1, -0.5).IsInvalidArgument())
      << "negative distance";
  EXPECT_TRUE(overlay.empty()) << "rejected entries must not be stored";
}

TEST(MatrixOverlayTest, PatchColumnAndRowApplyOnlyTouchedEntries) {
  SimilaritySpace space = MakeSpace({6}, 5);
  MatrixOverlay overlay(space);
  ASSERT_TRUE(overlay.Set(0, 1, 4, 9.0).ok());
  ASSERT_TRUE(overlay.Set(0, 3, 4, 8.0).ok());
  ASSERT_TRUE(overlay.Set(0, 1, 2, 7.0).ok());

  std::vector<double> col(6);
  for (ValueId v = 0; v < 6; ++v) col[v] = space.CatDist(0, v, 4);
  overlay.PatchColumn(0, 4, col.data());
  for (ValueId v = 0; v < 6; ++v) {
    const double want = v == 1 ? 9.0 : v == 3 ? 8.0 : space.CatDist(0, v, 4);
    EXPECT_EQ(col[v], want) << "column entry " << v;
  }

  std::vector<double> row(6);
  for (ValueId v = 0; v < 6; ++v) row[v] = space.CatDist(0, 1, v);
  overlay.PatchRow(0, 1, row.data());
  for (ValueId v = 0; v < 6; ++v) {
    const double want = v == 4 ? 9.0 : v == 2 ? 7.0 : space.CatDist(0, 1, v);
    EXPECT_EQ(row[v], want) << "row entry " << v;
  }
}

TEST(MatrixOverlayTest, BuildPatchedSpaceMatchesDistEverywhere) {
  SimilaritySpace space = MakeSpace({4, 7, 3}, 6);
  Rng rng(99);
  MatrixOverlay overlay = MakeRandomOverlay(space, rng, 0.15);
  ASSERT_GT(overlay.num_entries(), 0u);
  SimilaritySpace patched = overlay.BuildPatchedSpace();
  ASSERT_EQ(patched.num_attributes(), space.num_attributes());
  for (AttrId a = 0; a < space.num_attributes(); ++a) {
    for (ValueId x = 0; x < space.Cardinality(a); ++x) {
      for (ValueId y = 0; y < space.Cardinality(a); ++y) {
        EXPECT_EQ(patched.CatDist(a, x, y), overlay.Dist(a, x, y))
            << "attr " << a << " (" << x << ", " << y << ")";
      }
    }
  }
  EXPECT_TRUE(patched.matrix(0).Validate().ok());
}

TEST(MatrixOverlayTest, RowSensitivityFollowsTouchedColumns) {
  SimilaritySpace space = MakeSpace({4, 4}, 7);
  MatrixOverlay overlay(space);
  ASSERT_TRUE(overlay.Set(1, 0, 2, 3.0).ok());  // touches column 2 of attr 1

  const std::vector<AttrId> both = {0, 1};
  const std::vector<ValueId> hit = {0, 2};   // attr 1 value 2: touched
  const std::vector<ValueId> miss = {2, 1};  // attr 1 value 1: untouched
  EXPECT_TRUE(overlay.RowSensitive(hit.data(), both));
  EXPECT_FALSE(overlay.RowSensitive(miss.data(), both));

  // Sensitivity respects the attribute selection: dropping attr 1 from the
  // selection makes the same row invariant.
  const std::vector<AttrId> only0 = {0};
  EXPECT_FALSE(overlay.RowSensitive(hit.data(), only0));
}

TEST(MatrixOverlayTest, SerializeParseRoundTrip) {
  SimilaritySpace space = MakeSpace({5, 8}, 8);
  Rng rng(123);
  MatrixOverlay overlay = MakeRandomOverlay(space, rng, 0.2);
  ASSERT_GT(overlay.num_entries(), 1u);

  auto parsed = MatrixOverlay::Parse(space, overlay.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->num_entries(), overlay.num_entries());
  for (AttrId a = 0; a < 2; ++a) {
    for (ValueId x = 0; x < space.Cardinality(a); ++x) {
      for (ValueId y = 0; y < space.Cardinality(a); ++y) {
        EXPECT_EQ(parsed->Dist(a, x, y), overlay.Dist(a, x, y));
      }
    }
  }
}

TEST(MatrixOverlayTest, ParseRejectsMalformedAndInvalidLines) {
  SimilaritySpace space = MakeSpace({3}, 9);
  EXPECT_TRUE(MatrixOverlay::Parse(space, "0 1\n").status().IsInvalidArgument());
  EXPECT_TRUE(MatrixOverlay::Parse(space, "0 1 2 0.5 extra\n")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      MatrixOverlay::Parse(space, "0 9 2 0.5\n").status().IsInvalidArgument());
  // Ids that strtoull-style parsing would wrap or narrow onto a valid id:
  // 2^32 -> attr 0, 2^32 + 1 -> value 1, and a negated 2^64 - 1 -> 1.
  for (const char* line : {"4294967296 1 2 0.5\n", "0 4294967297 2 0.5\n",
                           "0 -18446744073709551615 2 0.5\n",
                           "0 1 +2 0.5\n"}) {
    EXPECT_TRUE(MatrixOverlay::Parse(space, line).status().IsInvalidArgument())
        << line;
  }
  auto ok = MatrixOverlay::Parse(space, "# comment\n\n  0 1 2 0.5\n");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->num_entries(), 1u);
  EXPECT_EQ(ok->Dist(0, 1, 2), 0.5);
}

TEST(MatrixOverlayTest, MakeRandomOverlayHitsRequestedDensity) {
  SimilaritySpace space = MakeSpace({10, 20}, 10);
  Rng rng(7);
  // 10% of off-diagonal entries: 0.1 * (90 + 380) = 47.
  MatrixOverlay overlay = MakeRandomOverlay(space, rng, 0.10);
  EXPECT_EQ(overlay.num_entries(), 47u);

  // A tiny positive fraction still yields at least one entry.
  Rng rng2(8);
  MatrixOverlay tiny = MakeRandomOverlay(space, rng2, 1e-6);
  EXPECT_GE(tiny.num_entries(), 1u);

  Rng rng3(9);
  EXPECT_TRUE(MakeRandomOverlay(space, rng3, 0.0).empty());
}

}  // namespace
}  // namespace nmrs
