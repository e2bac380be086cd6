#include "data/csv.h"

#include <gtest/gtest.h>

#include <sstream>

#include "data/generators.h"

namespace nmrs {
namespace {

TEST(DatasetCsvTest, CategoricalRoundTrip) {
  Rng rng(1);
  Dataset original = GenerateUniform(50, {5, 9, 3}, rng);
  std::stringstream ss;
  ASSERT_TRUE(WriteDatasetCsv(original, ss).ok());

  auto loaded = ReadDatasetCsv(ss);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->num_rows(), original.num_rows());
  ASSERT_TRUE(loaded->schema() == original.schema());
  for (RowId r = 0; r < original.num_rows(); ++r) {
    for (AttrId a = 0; a < 3; ++a) {
      EXPECT_EQ(loaded->Value(r, a), original.Value(r, a));
    }
  }
}

TEST(DatasetCsvTest, MixedNumericRoundTrip) {
  Rng rng(2);
  Dataset original = GenerateMixed(30, {4}, 2, 8, rng);
  std::stringstream ss;
  ASSERT_TRUE(WriteDatasetCsv(original, ss).ok());
  auto loaded = ReadDatasetCsv(ss);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->num_rows(), 30u);
  for (RowId r = 0; r < 30; ++r) {
    EXPECT_EQ(loaded->Value(r, 0), original.Value(r, 0));
    EXPECT_NEAR(loaded->Numeric(r, 1), original.Numeric(r, 1), 1e-4);
    EXPECT_NEAR(loaded->Numeric(r, 2), original.Numeric(r, 2), 1e-4);
    // Bucket ids re-derived consistently.
    EXPECT_EQ(loaded->Value(r, 1), original.Value(r, 1));
  }
}

TEST(DatasetCsvTest, RejectsMissingHeader) {
  std::stringstream ss("");
  EXPECT_TRUE(ReadDatasetCsv(ss).status().IsInvalidArgument());
}

TEST(DatasetCsvTest, RejectsBadKind) {
  std::stringstream ss("a:weird:3\n1\n");
  EXPECT_TRUE(ReadDatasetCsv(ss).status().IsInvalidArgument());
}

TEST(DatasetCsvTest, RejectsOutOfDomainValue) {
  std::stringstream ss("a:cat:3\n5\n");
  EXPECT_TRUE(ReadDatasetCsv(ss).status().IsInvalidArgument());
  // strtoull would wrap these to the in-domain value 1 and cardinality 4.
  std::stringstream negated_cell("a:cat:3\n-18446744073709551615\n");
  EXPECT_TRUE(ReadDatasetCsv(negated_cell).status().IsInvalidArgument());
  std::stringstream negated_card("a:cat:-18446744073709551612\n1\n");
  EXPECT_TRUE(ReadDatasetCsv(negated_card).status().IsInvalidArgument());
}

TEST(DatasetCsvTest, RejectsWrongCellCount) {
  std::stringstream ss("a:cat:3,b:cat:3\n1\n");
  EXPECT_TRUE(ReadDatasetCsv(ss).status().IsInvalidArgument());
}

TEST(DatasetCsvTest, RejectsMalformedNumericHeader) {
  std::stringstream ss("a:num:4\n1.0\n");
  EXPECT_TRUE(ReadDatasetCsv(ss).status().IsInvalidArgument());
}

TEST(DatasetCsvTest, SkipsBlankLines) {
  std::stringstream ss("a:cat:3\n1\n\n2\n");
  auto loaded = ReadDatasetCsv(ss);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), 2u);
}

TEST(MatrixCsvTest, RoundTrip) {
  Rng rng(3);
  DissimilarityMatrix original = MakeRandomMatrix(7, rng);
  std::stringstream ss;
  ASSERT_TRUE(WriteMatrixCsv(original, ss).ok());
  auto loaded = ReadMatrixCsv(ss);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->cardinality(), 7u);
  for (ValueId a = 0; a < 7; ++a) {
    for (ValueId b = 0; b < 7; ++b) {
      EXPECT_NEAR(loaded->Dist(a, b), original.Dist(a, b), 1e-6);
    }
  }
}

TEST(MatrixCsvTest, TransposedCopyConsistentAfterLoad) {
  std::stringstream ss("2\n0,0.7\n0.3,0\n");
  auto m = ReadMatrixCsv(ss);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->Dist(0, 1), 0.7);
  EXPECT_DOUBLE_EQ(m->Dist(1, 0), 0.3);
  EXPECT_DOUBLE_EQ(m->ColumnTo(1)[0], 0.7);
  EXPECT_DOUBLE_EQ(m->ColumnTo(0)[1], 0.3);
}

TEST(MatrixCsvTest, RejectsTruncated) {
  std::stringstream ss("3\n0,1,2\n");
  EXPECT_TRUE(ReadMatrixCsv(ss).status().IsInvalidArgument());
}

TEST(MatrixCsvTest, RejectsBadCell) {
  std::stringstream ss("2\n0,abc\n0.3,0\n");
  EXPECT_TRUE(ReadMatrixCsv(ss).status().IsInvalidArgument());
}

TEST(CsvFileTest, FileRoundTrip) {
  Rng rng(4);
  Dataset original = GenerateUniform(20, {3, 3}, rng);
  const std::string path = ::testing::TempDir() + "/nmrs_csv_test.csv";
  ASSERT_TRUE(WriteDatasetCsvFile(original, path).ok());
  auto loaded = ReadDatasetCsvFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), 20u);
  EXPECT_TRUE(ReadDatasetCsvFile("/nonexistent/x.csv").status().IsNotFound());
}

}  // namespace
}  // namespace nmrs
