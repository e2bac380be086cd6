#include <gtest/gtest.h>

#include <sstream>

#include "core/pipeline.h"
#include "core/skyline.h"
#include "data/csv.h"
#include "data/generators.h"
#include "db/database.h"

namespace nmrs {
namespace {

// Mixed categorical + numeric instance (paper §6).
struct MixedInstance {
  Dataset data;
  SimilaritySpace space;

  MixedInstance(uint64_t seed, uint64_t rows, std::vector<size_t> cat_cards,
                size_t num_numeric, size_t buckets)
      : data(Schema::Categorical({1})) {
    Rng rng(seed);
    Rng data_rng = rng.Fork();
    Rng space_rng = rng.Fork();
    data = GenerateMixed(rows, cat_cards, num_numeric, buckets, data_rng);
    for (size_t card : cat_cards) {
      space.AddCategorical(MakeRandomMatrix(card, space_rng));
    }
    for (size_t i = 0; i < num_numeric; ++i) {
      space.AddNumeric(NumericDissimilarity());
    }
  }

  Object RandomQuery(Rng& rng) const { return SampleUniformQuery(data, rng); }
};

class NumericBucketsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(NumericBucketsTest, TrsMatchesOracleAcrossBucketCounts) {
  const size_t buckets = GetParam();
  MixedInstance inst(70 + buckets, 250, {5, 4}, 2, buckets);
  Rng rng(71);
  for (int qi = 0; qi < 3; ++qi) {
    Object q = inst.RandomQuery(rng);
    auto expected = ReverseSkylineOracle(inst.data, inst.space, q);
    SimulatedDisk disk(1024);
    for (Algorithm algo :
         {Algorithm::kBRS, Algorithm::kSRS, Algorithm::kTRS}) {
      auto prepared = PrepareDataset(&disk, inst.data, algo, {});
      ASSERT_TRUE(prepared.ok());
      RSOptions opts;
      opts.memory.pages = 3;
      auto result = RunReverseSkyline(*prepared, inst.space, q, algo, opts);
      ASSERT_TRUE(result.ok()) << AlgorithmName(algo);
      EXPECT_EQ(result->rows, expected)
          << AlgorithmName(algo) << " buckets=" << buckets << " q" << qi;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BucketCounts, NumericBucketsTest,
                         ::testing::Values(1, 2, 4, 8, 32));

// Regression: stored numerics outside the schema's [lo, hi] range used to
// be clamped into the edge buckets, where TRS's bucket bounds no longer
// held them. On this reproduction (1 categorical attribute of cardinality
// 3, 1 numeric over [0, 10] in 2 buckets, 40 rows, 200 seeds x 10 row
// queries) TRS disagreed with Naive on 191 of 1000 queries with values
// drawn from [-20, 30]. Every stored-row entry point now rejects such
// rows, and in-range rows (range ends and the bucket boundary included)
// agree everywhere.
TEST(NumericTest, OutOfRangeRowsRejectedAndTrsMatchesNaive) {
  Schema schema = Schema::Categorical({3});
  schema.AddAttribute(AttributeInfo{"x", 2, true, Interval{0.0, 10.0}});
  const double grid[] = {0.0, 5.0, 10.0};
  size_t queries = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    SimilaritySpace space;
    space.AddCategorical(MakeRandomMatrix(3, rng));
    space.AddNumeric(NumericDissimilarity());
    Dataset wide(schema);
    Dataset good(schema);
    for (int r = 0; r < 40; ++r) {
      const ValueId v = static_cast<ValueId>(rng.Uniform(3));
      wide.AppendRow({v, 0}, {0.0, rng.UniformDouble(-20.0, 30.0)});
      const double x = rng.Bernoulli(0.5) ? grid[rng.Uniform(3)]
                                          : rng.UniformDouble(0.0, 10.0);
      good.AppendRow({v, 0}, {0.0, x});
    }

    // Out-of-range rows: Dataset::Validate (hence Database::Open) and the
    // CSV loader reject them.
    EXPECT_FALSE(wide.Validate().ok()) << seed;
    if (seed <= 5) {
      EXPECT_FALSE(Database::Open(wide, space, {}).ok()) << seed;
      std::stringstream csv;
      ASSERT_TRUE(WriteDatasetCsv(wide, csv).ok());
      EXPECT_EQ(ReadDatasetCsv(csv).status().code(),
                StatusCode::kInvalidArgument)
          << seed;
      auto db = Database::Open(good, space, {});
      ASSERT_TRUE(db.ok()) << db.status();
      EXPECT_EQ((*db)->Insert({0, 0}, {0.0, -0.25}).status().code(),
                StatusCode::kInvalidArgument);
    }

    // In-range rows: TRS equals Naive.
    ASSERT_TRUE(good.Validate().ok()) << seed;
    SimulatedDisk disk;
    auto naive = PrepareDataset(&disk, good, Algorithm::kNaive);
    auto trs = PrepareDataset(&disk, good, Algorithm::kTRS);
    ASSERT_TRUE(naive.ok() && trs.ok()) << seed;
    for (int i = 0; i < 10; ++i, ++queries) {
      const Object q = SampleRowQuery(good, rng);
      auto want = RunReverseSkyline(*naive, space, q, Algorithm::kNaive, {});
      auto got = RunReverseSkyline(*trs, space, q, Algorithm::kTRS, {});
      ASSERT_TRUE(want.ok() && got.ok()) << seed;
      EXPECT_EQ(got->rows, want->rows) << "seed " << seed << " query " << i;
    }
  }
  EXPECT_EQ(queries, 2000u);
}

TEST(NumericTest, AllNumericSchema) {
  MixedInstance inst(81, 200, {}, 3, 6);
  Rng rng(82);
  Object q = inst.RandomQuery(rng);
  auto expected = ReverseSkylineOracle(inst.data, inst.space, q);
  SimulatedDisk disk(1024);
  auto prepared = PrepareDataset(&disk, inst.data, Algorithm::kTRS, {});
  ASSERT_TRUE(prepared.ok());
  auto result =
      RunReverseSkyline(*prepared, inst.space, q, Algorithm::kTRS, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows, expected);
}

TEST(NumericTest, CoarseBucketsProduceMorePhase1Survivors) {
  // §6: bucket checks are conservative; coarser buckets weaken phase-1
  // pruning, producing at least as many survivors to refine in phase 2.
  MixedInstance coarse(91, 400, {4}, 2, 2);
  MixedInstance fine(91, 400, {4}, 2, 64);  // same seed -> same numerics? No:
  // bucket count affects only discretization, but the generator draws the
  // same values for the same seed regardless of bucket count.
  Rng rng(92);
  Object qc = coarse.RandomQuery(rng);
  Rng rng2(92);
  Object qf = fine.RandomQuery(rng2);

  SimulatedDisk disk(1024);
  auto prep_c = PrepareDataset(&disk, coarse.data, Algorithm::kTRS, {});
  auto prep_f = PrepareDataset(&disk, fine.data, Algorithm::kTRS, {});
  ASSERT_TRUE(prep_c.ok() && prep_f.ok());
  auto rc = RunReverseSkyline(*prep_c, coarse.space, qc, Algorithm::kTRS, {});
  auto rf = RunReverseSkyline(*prep_f, fine.space, qf, Algorithm::kTRS, {});
  ASSERT_TRUE(rc.ok() && rf.ok());
  // Same final result (both exact), more or equal survivors when coarse.
  EXPECT_EQ(rc->rows, rf->rows);
  EXPECT_GE(rc->stats.phase1_survivors, rf->stats.phase1_survivors);
}

TEST(NumericTest, SubsetOverMixedAttributes) {
  MixedInstance inst(95, 200, {5, 5}, 2, 8);
  Rng rng(96);
  Object q = inst.RandomQuery(rng);
  // Subset = one categorical + one numeric attribute.
  const std::vector<AttrId> sel = {1, 3};
  auto expected = ReverseSkylineOracle(inst.data, inst.space, q, sel);
  SimulatedDisk disk(1024);
  auto prepared = PrepareDataset(&disk, inst.data, Algorithm::kTRS, {});
  ASSERT_TRUE(prepared.ok());
  RSOptions opts;
  opts.selected_attrs = sel;
  auto result =
      RunReverseSkyline(*prepared, inst.space, q, Algorithm::kTRS, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows, expected);
}

TEST(NumericTest, ScaledNumericDissimilarity) {
  // Non-unit scale exercises the scale handling in interval bounds.
  Rng rng(97);
  Dataset data = GenerateMixed(150, {4}, 1, 8, rng);
  SimilaritySpace space;
  space.AddCategorical(MakeRandomMatrix(4, rng));
  space.AddNumeric(NumericDissimilarity(0.01));
  Object q = SampleUniformQuery(data, rng);
  auto expected = ReverseSkylineOracle(data, space, q);
  SimulatedDisk disk(1024);
  auto prepared = PrepareDataset(&disk, data, Algorithm::kTRS, {});
  ASSERT_TRUE(prepared.ok());
  auto result = RunReverseSkyline(*prepared, space, q, Algorithm::kTRS, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows, expected);
}

}  // namespace
}  // namespace nmrs
