// Contract tests: the NMRS_CHECK-guarded preconditions of the public API
// must abort loudly (never corrupt silently). Death tests pin that down.
#include <gtest/gtest.h>

#include "altree/al_tree.h"
#include "core/streaming.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "ops/weighted_distance.h"

namespace nmrs {
namespace {

TEST(ContractsDeathTest, PermutedRejectsWrongLength) {
  Dataset d(Schema::Categorical({3}));
  d.AppendCategoricalRow({0});
  d.AppendCategoricalRow({1});
  EXPECT_DEATH(d.Permuted({0}), "NMRS_CHECK");
}

TEST(ContractsDeathTest, PermutedRejectsOutOfRangeIndex) {
  Dataset d(Schema::Categorical({3}));
  d.AppendCategoricalRow({0});
  EXPECT_DEATH(d.Permuted({5}), "NMRS_CHECK");
}

TEST(ContractsDeathTest, AppendRowRejectsWrongArity) {
  Dataset d(Schema::Categorical({3, 3}));
  EXPECT_DEATH(d.AppendCategoricalRow({0}), "NMRS_CHECK");
}

TEST(ContractsDeathTest, ALTreeRejectsMismatchedAttrOrder) {
  Schema s = Schema::Categorical({3, 3});
  EXPECT_DEATH(ALTree(s, {0}), "NMRS_CHECK");
}

TEST(ContractsDeathTest, StreamingRejectsZeroWindow) {
  Rng rng(1);
  SimilaritySpace space = MakeRandomSpace({3}, rng);
  Schema schema = Schema::Categorical({3});
  EXPECT_DEATH(StreamingReverseSkyline(space, schema, Object({0}), 0),
               "NMRS_CHECK");
}

TEST(ContractsDeathTest, WeightedDistanceRejectsNonPositiveWeights) {
  EXPECT_DEATH(WeightedDistance({1.0, 0.0}), "NMRS_CHECK");
  EXPECT_DEATH(WeightedDistance({-0.5}), "NMRS_CHECK");
}

}  // namespace
}  // namespace nmrs
