#include "core/streaming.h"

#include <gtest/gtest.h>

#include "core/skyline.h"
#include "data/generators.h"
#include "testing/test_util.h"

namespace nmrs {
namespace {

using testing::RunningExample;

// Oracle: reverse skyline of the current window contents, computed from
// scratch.
std::vector<RowId> WindowOracle(const Schema& schema,
                                const SimilaritySpace& space,
                                const Object& query,
                                const std::vector<std::pair<RowId, Object>>&
                                    window) {
  Dataset data(schema);
  for (const auto& [id, obj] : window) {
    data.AppendRow(obj.values, obj.numerics);
  }
  auto rs_positions = ReverseSkylineOracle(data, space, query);
  std::vector<RowId> out;
  for (RowId pos : rs_positions) out.push_back(window[pos].first);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(StreamingTest, RunningExampleAsStream) {
  RunningExample ex;
  StreamingReverseSkyline stream(ex.space, ex.dataset.schema(), ex.query,
                                 /*window_capacity=*/6);
  for (RowId r = 0; r < ex.dataset.num_rows(); ++r) {
    stream.Push(r, ex.dataset.GetObject(r));
  }
  EXPECT_EQ(stream.CurrentRs(), (std::vector<RowId>{2, 5}));
}

TEST(StreamingTest, ExpiredPrunerLetsVictimRejoin) {
  RunningExample ex;
  // Window of 2: push O1 (a pruner of O2), then O2 (pruned), then O3 —
  // O1 expires, O2's only live pruner is gone, O2 rejoins the RS.
  StreamingReverseSkyline stream(ex.space, ex.dataset.schema(), ex.query, 2);
  stream.Push(0, ex.dataset.GetObject(0));  // O1
  stream.Push(1, ex.dataset.GetObject(1));  // O2, pruned by O1
  EXPECT_EQ(stream.CurrentRs(), (std::vector<RowId>{0}));
  stream.Push(2, ex.dataset.GetObject(2));  // O3 arrives, O1 expires
  EXPECT_EQ(stream.CurrentRs(), (std::vector<RowId>{1, 2}));
}

class StreamingDifferential
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(StreamingDifferential, MatchesOracleAfterEveryPush) {
  const auto [seed, capacity] = GetParam();
  testing::RandomInstance inst(seed, 250, {5, 4, 6});
  StreamingReverseSkyline stream(inst.space, inst.data.schema(),
                                 inst.data.GetObject(0), capacity);
  const Object query = inst.data.GetObject(0);

  std::vector<std::pair<RowId, Object>> window;
  for (RowId r = 0; r < inst.data.num_rows(); ++r) {
    stream.Push(r, inst.data.GetObject(r));
    window.push_back({r, inst.data.GetObject(r)});
    if (window.size() > capacity) window.erase(window.begin());
    ASSERT_EQ(stream.window_size(), window.size());
    EXPECT_EQ(stream.CurrentRs(),
              WindowOracle(inst.data.schema(), inst.space, query, window))
        << "after push " << r << " (capacity " << capacity << ")";
  }
  if (capacity > 1) {
    EXPECT_GT(stream.checks(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StreamingDifferential,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(1, 2, 7, 40, 1000)));

TEST(StreamingTest, DuplicateValuesAcrossWindow) {
  // Duplicates prune each other (when Q differs); when one copy expires,
  // the remaining copy is still pruned by yet another copy, etc.
  Schema schema = Schema::Categorical({3});
  Rng rng(9);
  SimilaritySpace space = MakeRandomSpace({3}, rng);
  StreamingReverseSkyline stream(space, schema, Object({0}), 3);
  for (RowId r = 0; r < 10; ++r) {
    stream.Push(r, Object({1}));
    // All window objects are identical; each is pruned by its twin
    // whenever more than one is live.
    if (stream.window_size() > 1) {
      EXPECT_TRUE(stream.CurrentRs().empty()) << "r=" << r;
    } else {
      EXPECT_EQ(stream.CurrentRs().size(), 1u);
    }
  }
}

TEST(StreamingTest, WindowOfOne) {
  // A single-object window: the sole object is always in the RS.
  Schema schema = Schema::Categorical({4});
  Rng rng(10);
  SimilaritySpace space = MakeRandomSpace({4}, rng);
  StreamingReverseSkyline stream(space, schema, Object({0}), 1);
  for (RowId r = 0; r < 20; ++r) {
    stream.Push(r, Object({static_cast<ValueId>(r % 4)}));
    EXPECT_EQ(stream.CurrentRs(), (std::vector<RowId>{r}));
  }
}

TEST(StreamingTest, MixedNumericStream) {
  Rng rng(11);
  Dataset data = GenerateMixed(120, {4}, 1, 6, rng);
  SimilaritySpace space;
  space.AddCategorical(MakeRandomMatrix(4, rng));
  space.AddNumeric(NumericDissimilarity());
  const Object query = SampleUniformQuery(data, rng);

  StreamingReverseSkyline stream(space, data.schema(), query, 25);
  std::vector<std::pair<RowId, Object>> window;
  for (RowId r = 0; r < data.num_rows(); ++r) {
    stream.Push(r, data.GetObject(r));
    window.push_back({r, data.GetObject(r)});
    if (window.size() > 25) window.erase(window.begin());
    if (r % 10 == 0) {
      EXPECT_EQ(stream.CurrentRs(),
                WindowOracle(data.schema(), space, query, window))
          << "after push " << r;
    }
  }
}

}  // namespace
}  // namespace nmrs
