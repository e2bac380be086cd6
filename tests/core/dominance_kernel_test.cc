// Unit tests of the block dominance kernels (core/dominance_kernel.h):
// bit-exact verdict and accounting equivalence against the scalar
// PruneContext::Prunes loop on both dispatch paths, the columnar
// transpose, and — with asymmetric matrices — the gather orientation
// (which operand indexes the matrix row vs column).
#include "core/dominance_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/block_rs.h"
#include "core/dominance.h"
#include "core/pipeline.h"
#include "core/query_distance_table.h"
#include "data/columnar_batch.h"
#include "data/generators.h"
#include "testing/test_util.h"

namespace nmrs {
namespace {

using testing::RunningExample;

RowBatch BatchFromDataset(const Dataset& data) {
  RowBatch batch(data.schema().num_attributes(),
                 data.schema().NumNumeric() > 0);
  for (RowId r = 0; r < data.num_rows(); ++r) {
    batch.Append(r, data.RowValues(r), data.RowNumerics(r));
  }
  return batch;
}

TEST(ColumnarBatchTest, TransposeMatchesRowMajor) {
  Rng rng(99);
  Dataset data = GenerateMixed(137, {5, 9, 3}, 2, 4, rng);
  RowBatch rows = BatchFromDataset(data);
  ColumnarBatch cols;
  cols.Build(rows);
  ASSERT_EQ(cols.size(), rows.size());
  ASSERT_EQ(cols.num_attrs(), rows.num_attrs());
  ASSERT_TRUE(cols.has_numerics());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(cols.id(i), rows.id(i));
    for (AttrId a = 0; a < rows.num_attrs(); ++a) {
      EXPECT_EQ(cols.values(a)[i], rows.value(i, a)) << i << "/" << a;
      EXPECT_EQ(cols.numerics(a)[i], rows.numeric(i, a)) << i << "/" << a;
    }
  }
  // Rebuild from a smaller batch must fully replace the old view.
  RowBatch two(rows.num_attrs(), true);
  two.Append(rows.id(0), rows.row_values(0), rows.row_numerics(0));
  cols.Build(two);
  EXPECT_EQ(cols.size(), 1u);
}

TEST(ColumnarBatchTest, BuildFromColumns) {
  const std::vector<std::vector<ValueId>> columns = {{1, 2, 3}, {4, 5, 6}};
  const std::vector<RowId> ids = {10, 11, 12};
  ColumnarBatch cols;
  cols.BuildFromColumns(3, columns, ids);
  EXPECT_EQ(cols.size(), 3u);
  EXPECT_EQ(cols.num_attrs(), 2u);
  EXPECT_FALSE(cols.has_numerics());
  EXPECT_EQ(cols.values(0)[2], 3u);
  EXPECT_EQ(cols.values(1)[0], 4u);
  EXPECT_EQ(cols.id(1), 11u);
}

// Every row verdict and per-row check count of the kernel must equal the
// scalar early-aborting loop, on both dispatch paths.
void ExpectKernelMatchesScalar(const Dataset& data,
                               const SimilaritySpace& space,
                               const Object& query,
                               const std::vector<AttrId>& selection) {
  const Schema& schema = data.schema();
  const std::vector<AttrId> selected =
      ResolveSelectedAttrs(schema, selection);
  QueryDistanceTable table(space, schema, query, selected);
  PruneContext ctx(space, schema, query, selected, &table);
  RowBatch rows = BatchFromDataset(data);
  ColumnarBatch cols;
  cols.Build(rows);

  for (bool force_scalar : {false, true}) {
    ForceScalarKernelDispatchForTest(force_scalar);
    DominanceKernel kernel(ctx, cols);
    if (force_scalar) {
      ASSERT_EQ(kernel.dispatch(), KernelDispatch::kScalar);
    }
    for (RowId x = 0; x < data.num_rows(); x += 3) {
      ctx.SetCandidate(data.RowValues(x), data.RowNumerics(x));
      kernel.BeginCandidate();
      for (RowId y = 0; y < data.num_rows(); ++y) {
        uint64_t scalar_checks = 0;
        const bool scalar_prunes =
            ctx.Prunes(data.RowValues(y), data.RowNumerics(y),
                       &scalar_checks);
        EXPECT_EQ(kernel.RowPrunes(y), scalar_prunes)
            << "x=" << x << " y=" << y << " forced=" << force_scalar;
        EXPECT_EQ(kernel.RowChecks(y), scalar_checks)
            << "x=" << x << " y=" << y << " forced=" << force_scalar;
      }
    }
    EXPECT_GT(kernel.kernel_checks(), 0u);
  }
  ForceScalarKernelDispatchForTest(false);
}

TEST(DominanceKernelTest, MatchesScalarOnRunningExample) {
  RunningExample ex;
  ExpectKernelMatchesScalar(ex.dataset, ex.space, ex.query, {});
}

TEST(DominanceKernelTest, MatchesScalarOnRandomAsymmetricInstances) {
  Rng rng(2026);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<size_t> cards(1 + rng.Uniform(4));
    for (auto& c : cards) c = 2 + rng.Uniform(40);
    Rng drng = rng.Fork();
    Rng srng = rng.Fork();
    Dataset data = GenerateUniform(40 + rng.Uniform(120), cards, drng);
    SimilaritySpace space;
    for (size_t c : cards) {
      space.AddCategorical(MakeRandomMatrix(c, srng, {.symmetric = false}));
    }
    Object q = SampleUniformQuery(data, rng);
    std::vector<AttrId> sel;
    if (rng.Bernoulli(0.4)) {
      for (AttrId a = 0; a < cards.size(); ++a) {
        if (rng.Bernoulli(0.6)) sel.push_back(a);
      }
    }
    ExpectKernelMatchesScalar(data, space, q, sel);
  }
}

TEST(DominanceKernelTest, MatchesScalarOnMixedNumericInstance) {
  Rng rng(31337);
  Rng drng = rng.Fork();
  Rng srng = rng.Fork();
  Dataset data = GenerateMixed(180, {6, 11}, 2, 4, drng);
  SimilaritySpace space;
  space.AddCategorical(MakeRandomMatrix(6, srng, {.symmetric = false}));
  space.AddCategorical(MakeRandomMatrix(11, srng, {.symmetric = false}));
  space.AddNumeric(NumericDissimilarity(0.7));
  space.AddNumeric(NumericDissimilarity(1.3));
  Object q = SampleUniformQuery(data, rng);
  ExpectKernelMatchesScalar(data, space, q, {});
  ExpectKernelMatchesScalar(data, space, q, {3, 0});
}

// Pins the gather orientation on an asymmetric 2-value matrix: the lane
// value for row Y against candidate X must be d(y, x) — matrix row y,
// column x — never the transposed d(x, y). The two orientations give
// opposite verdicts here, so a flipped gather cannot pass.
TEST(DominanceKernelTest, GatherOrientationOnAsymmetricMatrix) {
  DissimilarityMatrix mat(2);
  mat.Set(0, 1, 0.9);  // d(0 -> 1)
  mat.Set(1, 0, 0.1);  // d(1 -> 0)
  SimilaritySpace space;
  space.AddCategorical(std::move(mat));
  Schema schema = Schema::Categorical({2});

  // Query q=1, candidate x=0: threshold d(q, x) = d(1, 0) = 0.1.
  // Pruner y=1: lhs = d(y, x) = d(1, 0) = 0.1 -> not < 0.1, no strict
  // attribute, so y must NOT prune. The flipped lhs d(x, y) = 0.9 would
  // also not prune (violation), but for y=0: lhs = d(0, 0) = 0 < 0.1
  // prunes, while flipped d(0, 0) = 0 agrees — so pin the threshold side
  // too with query q=0, candidate x=1: threshold d(0, 1) = 0.9, y=0 has
  // lhs d(0, 1) = 0.9 (no strict), flipped d(1, 0) = 0.1 would prune.
  const std::vector<AttrId> selected = {0};
  RowBatch rows(1, false);
  const ValueId v0 = 0, v1 = 1;
  rows.Append(0, &v0, nullptr);
  rows.Append(1, &v1, nullptr);
  ColumnarBatch cols;
  cols.Build(rows);

  for (bool force_scalar : {false, true}) {
    ForceScalarKernelDispatchForTest(force_scalar);
    {
      Object q({1});
      QueryDistanceTable table(space, schema, q, selected);
      PruneContext ctx(space, schema, q, selected, &table);
      ValueId x = 0;
      ctx.SetCandidate(&x, nullptr);
      ASSERT_EQ(ctx.QueryDist(0), 0.1);
      DominanceKernel kernel(ctx, cols);
      EXPECT_TRUE(kernel.RowPrunes(0));    // d(0,0)=0 < 0.1
      EXPECT_FALSE(kernel.RowPrunes(1));   // d(1,0)=0.1, nothing strict
    }
    {
      Object q({0});
      QueryDistanceTable table(space, schema, q, selected);
      PruneContext ctx(space, schema, q, selected, &table);
      ValueId x = 1;
      ctx.SetCandidate(&x, nullptr);
      ASSERT_EQ(ctx.QueryDist(0), 0.9);
      // y=0: lhs = d(0,1) = 0.9 == threshold, not strict -> no prune.
      // A transposed gather would read d(1,0) = 0.1 and prune.
      DominanceKernel kernel(ctx, cols);
      EXPECT_FALSE(kernel.RowPrunes(0));
      EXPECT_TRUE(kernel.RowPrunes(1) == (space.CatDist(0, 1, 1) < 0.9))
          << "self-distance row must follow the definition";
    }
  }
  ForceScalarKernelDispatchForTest(false);
}

// The Find* adapters reproduce the scalar scan loops exactly: same pair and
// check totals, same first-pruner stop, in forward and expanding-ring order.
TEST(DominanceKernelTest, FindAdaptersMatchScalarScans) {
  Rng rng(555);
  std::vector<size_t> cards = {7, 5, 9};
  Rng drng = rng.Fork();
  Rng srng = rng.Fork();
  Dataset data = GenerateNormal(150, cards, drng);
  SimilaritySpace space;
  for (size_t c : cards) {
    space.AddCategorical(MakeRandomMatrix(c, srng, {.symmetric = false}));
  }
  const Schema& schema = data.schema();
  const std::vector<AttrId> selected = ResolveSelectedAttrs(schema, {});
  Object q = SampleRowQuery(data, rng);
  QueryDistanceTable table(space, schema, q, selected);
  PruneContext ctx(space, schema, q, selected, &table);
  RowBatch rows = BatchFromDataset(data);
  ColumnarBatch cols;
  cols.Build(rows);
  const size_t n = rows.size();
  // Always-block, a short probe, and the default threshold.
  for (uint32_t promote : {0u, 3u, 16u}) {
    DominanceKernel kernel(ctx, cols, promote);
    for (RowId x = 0; x < n; x += 5) {
      ctx.SetCandidate(data.RowValues(x), nullptr);

      // Scalar forward scan, skipping the candidate's own id.
      uint64_t s_pairs = 0, s_checks = 0;
      bool s_found = false;
      for (size_t j = 0; j < n && !s_found; ++j) {
        if (rows.id(j) == x) continue;
        ++s_pairs;
        s_found = ctx.Prunes(rows.row_values(j), nullptr, &s_checks);
      }
      kernel.BeginCandidate();
      uint64_t k_pairs = 0, k_checks = 0;
      EXPECT_EQ(kernel.FindPrunerForward(0, n, x, &k_pairs, &k_checks),
                s_found);
      EXPECT_EQ(k_pairs, s_pairs) << "x=" << x;
      EXPECT_EQ(k_checks, s_checks) << "x=" << x;

      // Scalar expanding-ring scan around the candidate's position.
      s_pairs = s_checks = 0;
      s_found = false;
      const size_t center = x;
      for (size_t off = 1; off < n && !s_found; ++off) {
        if (off <= center && rows.id(center - off) != x) {
          ++s_pairs;
          s_found = ctx.Prunes(rows.row_values(center - off), nullptr,
                               &s_checks);
        }
        if (!s_found && center + off < n && rows.id(center + off) != x) {
          ++s_pairs;
          s_found =
              ctx.Prunes(rows.row_values(center + off), nullptr, &s_checks);
        }
      }
      kernel.BeginCandidate();
      k_pairs = k_checks = 0;
      EXPECT_EQ(kernel.FindPrunerRing(center, x, &k_pairs, &k_checks),
                s_found);
      EXPECT_EQ(k_pairs, s_pairs) << "ring x=" << x;
      EXPECT_EQ(k_checks, s_checks) << "ring x=" << x;
    }
  }
}

// The scalar SRS phase-1 ring around `center`: offsets +-1, +-2, ..., the
// left row first at each offset, rows with id `skip` skipped uncounted.
bool ScalarRing(const RowBatch& rows, const PruneContext& ctx, size_t center,
                RowId skip, uint64_t* pairs, uint64_t* checks) {
  const size_t n = rows.size();
  auto try_row = [&](size_t j) {
    if (rows.id(j) == skip) return false;
    ++*pairs;
    return ctx.Prunes(rows.row_values(j), rows.row_numerics(j), checks);
  };
  for (size_t off = 1; off < n; ++off) {
    if (off <= center && try_row(center - off)) return true;
    if (center + off < n && try_row(center + off)) return true;
  }
  return false;
}

// Runs FindPrunerRing for every center of `rows` on both dispatch paths,
// with and without the row-major source batch (the probe's two inputs),
// at several promotion thresholds, and expects the scalar ring's verdict, pair tests and checks
// every time. Returns the promotions seen, so callers can assert the walk
// actually ran.
uint64_t ExpectRingMatchesScalar(const RowBatch& rows, PruneContext& ctx,
                                 const std::string& label) {
  const size_t n = rows.size();
  const size_t m = rows.num_attrs();
  ColumnarBatch with_source;
  with_source.Build(rows);
  std::vector<std::vector<ValueId>> columns(m, std::vector<ValueId>(n));
  std::vector<RowId> ids(n);
  for (size_t i = 0; i < n; ++i) {
    ids[i] = rows.id(i);
    for (size_t a = 0; a < m; ++a) columns[a][i] = rows.value(i, a);
  }
  ColumnarBatch no_source;
  if (!rows.has_numerics()) no_source.BuildFromColumns(n, columns, ids);
  uint64_t promotions = 0;
  for (bool force_scalar : {false, true}) {
    ForceScalarKernelDispatchForTest(force_scalar);
    for (const ColumnarBatch* cols : {&with_source, &no_source}) {
      if (cols->size() != n) continue;
      for (uint32_t promote : {0u, 1u, 2u, 3u, 5u, 16u, 1u << 30}) {
        DominanceKernel kernel(ctx, *cols, promote);
        for (size_t center = 0; center < n; ++center) {
          ctx.SetCandidate(rows.row_values(center),
                           rows.row_numerics(center));
          uint64_t s_pairs = 0, s_checks = 0;
          const bool s_found = ScalarRing(rows, ctx, center, rows.id(center),
                                          &s_pairs, &s_checks);
          kernel.BeginCandidate();
          uint64_t k_pairs = 0, k_checks = 0;
          const bool k_found = kernel.FindPrunerRing(
              center, rows.id(center), &k_pairs, &k_checks);
          const std::string where =
              label + " center=" + std::to_string(center) +
              " promote=" + std::to_string(promote) +
              " forced=" + std::to_string(force_scalar) +
              " source=" + std::to_string(cols == &with_source);
          EXPECT_EQ(k_found, s_found) << where;
          EXPECT_EQ(k_pairs, s_pairs) << where;
          EXPECT_EQ(k_checks, s_checks) << where;
        }
        promotions += kernel.promotions();
      }
    }
  }
  ForceScalarKernelDispatchForTest(false);
  return promotions;
}

// A one-candidate ring layout with pruners placed by hand. Attribute 0
// decides everything against the candidate value 0 under query value 2:
// value 1 prunes (d = 0.1 < 0.5), value 2 ties the threshold (two checks,
// no prune), value 3 violates (one check). Attribute 1 is all-zero
// distances, so it never violates and never is strict.
struct RingLayout {
  SimilaritySpace space;
  Schema schema = Schema::Categorical({4, 2});
  Object query{std::vector<ValueId>{2, 0}};
  std::vector<AttrId> selected = {0, 1};

  RingLayout() {
    DissimilarityMatrix d0(4);
    for (ValueId a = 0; a < 4; ++a) {
      for (ValueId b = 0; b < 4; ++b) {
        if (a != b) d0.Set(a, b, 0.7);
      }
    }
    d0.Set(1, 0, 0.1);
    d0.Set(2, 0, 0.5);
    d0.Set(3, 0, 0.9);
    space.AddCategorical(std::move(d0));
    space.AddCategorical(DissimilarityMatrix(2));
  }

  // n rows of ties and violations (a fixed pseudo-random mix), the
  // candidate (value 0) at `center` and value-1 pruners at `pruners`.
  RowBatch Rows(size_t n, size_t center,
                const std::vector<size_t>& pruners) const {
    RowBatch rows(2, false);
    for (size_t i = 0; i < n; ++i) {
      ValueId v[2] = {static_cast<ValueId>((i * 7 + i / 3) % 3 == 0 ? 3 : 2),
                      static_cast<ValueId>(i % 2)};
      if (i == center) v[0] = 0;
      for (size_t p : pruners) {
        if (i == p) v[0] = 1;
      }
      rows.Append(static_cast<RowId>(i), v, nullptr);
    }
    return rows;
  }
};

// One candidate at `center`, kernel vs scalar ring, every promotion
// threshold in `promotes`, both dispatch paths.
void ExpectLayoutRingMatches(const RingLayout& layout, size_t n,
                             size_t center,
                             const std::vector<size_t>& pruners,
                             const std::vector<uint32_t>& promotes,
                             bool expect_found, const std::string& label) {
  QueryDistanceTable table(layout.space, layout.schema, layout.query,
                           layout.selected);
  PruneContext ctx(layout.space, layout.schema, layout.query,
                   layout.selected, &table);
  const RowBatch rows = layout.Rows(n, center, pruners);
  ColumnarBatch cols;
  cols.Build(rows);
  ctx.SetCandidate(rows.row_values(center), nullptr);
  uint64_t s_pairs = 0, s_checks = 0;
  const bool s_found =
      ScalarRing(rows, ctx, center, rows.id(center), &s_pairs, &s_checks);
  ASSERT_EQ(s_found, expect_found) << label;
  for (bool force_scalar : {false, true}) {
    ForceScalarKernelDispatchForTest(force_scalar);
    for (uint32_t promote : promotes) {
      DominanceKernel kernel(ctx, cols, promote);
      kernel.BeginCandidate();
      uint64_t k_pairs = 0, k_checks = 0;
      const std::string where = label + " promote=" +
                                std::to_string(promote) + " forced=" +
                                std::to_string(force_scalar);
      EXPECT_EQ(kernel.FindPrunerRing(center, rows.id(center), &k_pairs,
                                      &k_checks),
                s_found)
          << where;
      EXPECT_EQ(k_pairs, s_pairs) << where;
      EXPECT_EQ(k_checks, s_checks) << where;
    }
  }
  ForceScalarKernelDispatchForTest(false);
}

const std::vector<uint32_t> kRingPromotes = {0, 1, 2, 3, 4, 7, 16, 1u << 30};

// Every center of batches around the window size, on random instances
// (categorical and mixed-numeric): covers candidates within 32 rows of
// either edge, batches smaller than one window, and whole-batch scans.
TEST(DominanceKernelRingTest, EveryCenterMatchesScalarRing) {
  Rng rng(8080);
  for (size_t n : {1, 2, 7, 31, 32, 33, 64, 65, 150}) {
    Rng drng = rng.Fork();
    Rng srng = rng.Fork();
    const bool mixed = n % 2 == 1;
    Dataset data = mixed ? GenerateMixed(n, {9, 5}, 1, 4, drng)
                         : GenerateNormal(n, {9, 5, 12}, drng);
    SimilaritySpace space;
    for (size_t c : mixed ? std::vector<size_t>{9, 5}
                          : std::vector<size_t>{9, 5, 12}) {
      space.AddCategorical(MakeRandomMatrix(c, srng, {.symmetric = false}));
    }
    if (mixed) space.AddNumeric(NumericDissimilarity(0.8));
    const Schema& schema = data.schema();
    const std::vector<AttrId> selected = ResolveSelectedAttrs(schema, {});
    Object q = SampleUniformQuery(data, rng);
    QueryDistanceTable table(space, schema, q, selected);
    PruneContext ctx(space, schema, q, selected, &table);
    const uint64_t promotions = ExpectRingMatchesScalar(
        BatchFromDataset(data), ctx, "n=" + std::to_string(n));
    if (n >= 32) {
      EXPECT_GT(promotions, 0u) << "n=" << n;
    }
  }
}

TEST(DominanceKernelRingTest, EqualOffsetPrunersLeftWins) {
  RingLayout layout;
  // Both sides hold a pruner at offset 40: the ring tests the left first.
  ExpectLayoutRingMatches(layout, 200, 100, {60, 140}, kRingPromotes, true,
                          "equal offsets");
  // The right one nearer by one offset wins instead.
  ExpectLayoutRingMatches(layout, 200, 100, {60, 139}, kRingPromotes, true,
                          "right nearer");
  // Equal offsets in the same block as the candidate.
  ExpectLayoutRingMatches(layout, 200, 80, {77, 83}, kRingPromotes, true,
                          "equal offsets, one block");
}

TEST(DominanceKernelRingTest, PromotionBetweenLeftAndRight) {
  RingLayout layout;
  // promote 3 after L(1), R(1), L(2): the walk resumes at R(2). A pruner
  // right there, a left pruner at the next offset, or a far one.
  ExpectLayoutRingMatches(layout, 200, 100, {102}, {3}, true,
                          "pruner at R(o)");
  ExpectLayoutRingMatches(layout, 200, 100, {97}, {3}, true,
                          "pruner at L(o+1)");
  ExpectLayoutRingMatches(layout, 200, 100, {97, 102}, {3}, true,
                          "pruners at R(o) and L(o+1)");
  ExpectLayoutRingMatches(layout, 200, 100, {170}, {1, 3, 5, 7}, true,
                          "far pruner");
  // Promotion on the left edge's last row: only the right side remains.
  ExpectLayoutRingMatches(layout, 200, 2, {150}, {3, 5}, true,
                          "left side ends at promotion");
}

TEST(DominanceKernelRingTest, PrunerOnWindowBoundary) {
  RingLayout layout;
  for (size_t p : {31, 32, 63, 64, 127, 128, 159, 160}) {
    ExpectLayoutRingMatches(layout, 200, 96, {p}, kRingPromotes, true,
                            "pruner at row " + std::to_string(p));
  }
  // The last row of the batch, and row 0.
  ExpectLayoutRingMatches(layout, 200, 96, {199}, kRingPromotes, true,
                          "pruner at the last row");
  ExpectLayoutRingMatches(layout, 200, 96, {0}, kRingPromotes, true,
                          "pruner at row 0");
}

TEST(DominanceKernelRingTest, NoPrunerScansEverything) {
  RingLayout layout;
  for (size_t center : {0, 1, 31, 32, 100, 167, 168, 198, 199}) {
    ExpectLayoutRingMatches(layout, 200, center, {}, kRingPromotes, false,
                            "center " + std::to_string(center));
  }
  for (size_t n : {1, 2, 5, 31, 32, 33}) {
    ExpectLayoutRingMatches(layout, n, n / 2, {}, kRingPromotes, false,
                            "small batch n=" + std::to_string(n));
  }
}

// The sequential and chunked (num_threads > 1) phase-1 paths run the same
// ring: end-to-end SRS with kernels matches the scalar path's rows, checks
// and pair tests, on data whose ring scans run long enough to promote.
TEST(DominanceKernelRingTest, SequentialAndChunkedPathsMatchScalar) {
  testing::RandomInstance inst(4711, 1500, {24, 24, 24}, false);
  SimulatedDisk disk(512);
  auto prep = PrepareDataset(&disk, inst.data, Algorithm::kSRS, {});
  ASSERT_TRUE(prep.ok()) << prep.status();
  Rng rng(12);
  std::vector<Object> queries;
  for (int i = 0; i < 4; ++i) {
    queries.push_back(SampleUniformQuery(inst.data, rng));
  }
  RSOptions scalar_opts;
  scalar_opts.use_kernels = false;
  scalar_opts.memory.pages = 4;
  std::vector<ReverseSkylineResult> expected;
  for (const Object& q : queries) {
    auto r = SortReverseSkyline(prep->stored, inst.space, q, scalar_opts);
    ASSERT_TRUE(r.ok()) << r.status();
    expected.push_back(*r);
  }
  for (uint32_t promote : {0u, 3u, 16u}) {
    RSOptions opts = scalar_opts;
    opts.use_kernels = true;
    opts.kernel_promote_rows = promote;
    uint64_t promotions = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const std::string label = "query " + std::to_string(i) + " promote " +
                                std::to_string(promote);
      auto seq = SortReverseSkyline(prep->stored, inst.space, queries[i], opts);
      ASSERT_TRUE(seq.ok()) << seq.status();
      EXPECT_EQ(seq->rows, expected[i].rows) << label;
      EXPECT_EQ(seq->stats.checks, expected[i].stats.checks) << label;
      EXPECT_EQ(seq->stats.pair_tests, expected[i].stats.pair_tests)
          << label;
      promotions += seq->stats.kernel_promotions;

      RSOptions chunked = opts;
      chunked.num_threads = 3;
      auto r = SortReverseSkyline(prep->stored, inst.space, queries[i],
                                  chunked);
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(r->rows, expected[i].rows) << label << " chunked";
      EXPECT_EQ(r->stats.checks, expected[i].stats.checks)
          << label << " chunked";
      EXPECT_EQ(r->stats.pair_tests, expected[i].stats.pair_tests)
          << label << " chunked";
      EXPECT_EQ(r->stats.kernel_block_rows, seq->stats.kernel_block_rows)
          << label << " chunked";
    }
    if (promote != 0) {
      EXPECT_GT(promotions, 0u) << "promote " << promote;
    }
  }
}

// ---- Runs of identical rows (ColumnarBatch run index) ----

// A batch of runs over RingLayout's space: run (v, count) is `count` rows
// of value v on attribute 0 and 0 on attribute 1; ids are row offsets.
RowBatch RunRows(const std::vector<std::pair<ValueId, size_t>>& runs) {
  RowBatch rows(2, false);
  RowId id = 0;
  for (const auto& [v, count] : runs) {
    for (size_t i = 0; i < count; ++i) {
      const ValueId vals[2] = {v, 0};
      rows.Append(id++, vals, nullptr);
    }
  }
  return rows;
}

struct ScanCount {
  bool found = false;
  uint64_t pairs = 0;
  uint64_t checks = 0;
};

// The scalar ring around `center` for the candidate (0, 0), skipping
// `skip`, against the kernel on both dispatch paths, every threshold of
// kRingPromotes. Returns the scalar counts.
ScanCount ExpectRunRing(const RowBatch& rows, size_t center, RowId skip,
                        const std::string& label) {
  RingLayout layout;
  QueryDistanceTable table(layout.space, layout.schema, layout.query,
                           layout.selected);
  PruneContext ctx(layout.space, layout.schema, layout.query,
                   layout.selected, &table);
  ColumnarBatch cols;
  cols.Build(rows);
  EXPECT_LT(cols.num_runs(), cols.size()) << label;
  const ValueId x[2] = {0, 0};
  ctx.SetCandidate(x, nullptr);
  ScanCount want;
  want.found = ScalarRing(rows, ctx, center, skip, &want.pairs, &want.checks);
  for (bool force_scalar : {false, true}) {
    ForceScalarKernelDispatchForTest(force_scalar);
    for (uint32_t promote : kRingPromotes) {
      DominanceKernel kernel(ctx, cols, promote);
      kernel.BeginCandidate();
      ScanCount got;
      got.found = kernel.FindPrunerRing(center, skip, &got.pairs,
                                        &got.checks);
      const std::string where = label + " promote=" +
                                std::to_string(promote) + " forced=" +
                                std::to_string(force_scalar);
      EXPECT_EQ(got.found, want.found) << where;
      EXPECT_EQ(got.pairs, want.pairs) << where;
      EXPECT_EQ(got.checks, want.checks) << where;
    }
  }
  ForceScalarKernelDispatchForTest(false);
  return want;
}

TEST(ColumnarBatchTest, RunIndexAndHeads) {
  RowBatch rows(2, true);
  // Rows 0-2 identical; row 3 differs only in a numeric; rows 4-5 equal.
  const ValueId v[2] = {1, 2};
  const double a[2] = {0.5, 0.25}, b[2] = {0.5, 0.75};
  for (RowId id : {7, 3, 9}) rows.Append(id, v, a);
  rows.Append(4, v, b);
  rows.Append(5, v, a);
  rows.Append(6, v, a);
  ColumnarBatch cols;
  cols.Build(rows);
  ASSERT_EQ(cols.num_runs(), 3u);
  EXPECT_LT(cols.num_runs(), cols.size());
  EXPECT_EQ(cols.run_start(0), 0u);
  EXPECT_EQ(cols.run_start(1), 3u);
  EXPECT_EQ(cols.run_start(2), 4u);
  EXPECT_EQ(cols.run_start(3), 6u);
  const std::vector<size_t> run_of = {0, 0, 0, 1, 2, 2};
  for (size_t i = 0; i < run_of.size(); ++i) {
    EXPECT_EQ(cols.run_of(i), run_of[i]) << i;
  }
  EXPECT_EQ(cols.head_values(0)[1], 1u);
  EXPECT_EQ(cols.head_numerics(1)[1], 0.75);
  EXPECT_EQ(cols.head_numerics(1)[2], 0.25);

  // All singletons: one run per row, and the head columns are the row
  // columns themselves, not copies.
  RowBatch distinct = RunRows({{1, 1}, {2, 1}, {3, 1}});
  cols.Build(distinct);
  EXPECT_EQ(cols.num_runs(), cols.size());
  EXPECT_EQ(cols.head_values(0), cols.values(0));
  EXPECT_EQ(cols.head_values(1), cols.values(1));
}

TEST(DominanceKernelRunTest, CandidateInMiddleOfOwnRun) {
  // Own run of ties (rows 100-179) around center 150: its left part covers
  // offsets 1-50, its right part 1-29, then pruners at offset 30.
  const RowBatch rows = RunRows({{1, 50}, {3, 50}, {2, 80}, {1, 40}, {3, 40}});
  const ScanCount c = ExpectRunRing(rows, 150, 150, "ties around center");
  EXPECT_TRUE(c.found);
  EXPECT_EQ(c.pairs, 60u);    // 30 left ties, 29 right ties, the pruner
  EXPECT_EQ(c.checks, 120u);  // 2 checks each
  // The candidate inside a run identical to it: its left neighbour prunes.
  const RowBatch own = RunRows({{3, 30}, {0, 60}, {3, 30}});
  EXPECT_EQ(ExpectRunRing(own, 60, 60, "pruning own run").pairs, 1u);
  // With that neighbour's id skipped, the right one at offset 1 prunes.
  EXPECT_EQ(ExpectRunRing(own, 60, 59, "own run, left skipped").pairs, 1u);
  // Run edges on both sides of the center.
  ExpectRunRing(own, 30, 30, "center at its run's head");
  ExpectRunRing(own, 89, 89, "center at its run's tail");
}

TEST(DominanceKernelRunTest, EqualOffsetRunsLeftWins) {
  // Center 100; pruner runs end at row 39 (left offset 61) and start at
  // row 161 (right offset 61). Left ties, right violations in between.
  const RowBatch rows =
      RunRows({{1, 40}, {2, 60}, {3, 1}, {3, 60}, {1, 40}});
  const ScanCount c = ExpectRunRing(rows, 100, 100, "equal offsets");
  EXPECT_TRUE(c.found);
  EXPECT_EQ(c.pairs, 121u);   // 60 ties + the left pruner + 60 violations
  EXPECT_EQ(c.checks, 182u);
  // Moved one row nearer, the right run wins.
  const RowBatch nearer =
      RunRows({{1, 40}, {2, 60}, {3, 1}, {3, 59}, {1, 40}});
  EXPECT_EQ(ExpectRunRing(nearer, 100, 100, "right nearer").pairs, 120u);
}

TEST(DominanceKernelRunTest, RunCutByStopOffset) {
  // The left pruner run's near row sits at offset 30; on the right a tie
  // run spans offsets 20-60, of which only 20-29 are visited.
  const RowBatch rows = RunRows(
      {{3, 51}, {1, 20}, {3, 29}, {3, 1}, {3, 19}, {2, 41}, {3, 40}});
  const ScanCount c = ExpectRunRing(rows, 100, 100, "right run cut");
  EXPECT_TRUE(c.found);
  EXPECT_EQ(c.pairs, 59u);   // left 29 + pruner, right 19 + 10 ties
  EXPECT_EQ(c.checks, 70u);  // 29 + 2 + 19 + 20
  // Mirrored: the right pruner at offset 30 wins and the left tie run
  // spanning offsets 20-60 counts offsets 20-30.
  const RowBatch mirrored = RunRows(
      {{3, 40}, {2, 41}, {3, 19}, {3, 1}, {3, 29}, {1, 20}, {3, 51}});
  const ScanCount m = ExpectRunRing(mirrored, 100, 100, "left run cut");
  EXPECT_TRUE(m.found);
  EXPECT_EQ(m.pairs, 60u);   // left 19 + 11 ties, right 29 + pruner
}

TEST(DominanceKernelRunTest, SkipIdInsideRun) {
  // The left pruner run's near row (90, offset 10) is skipped, so its
  // first visited row is at offset 11 — tied with the right pruner run's
  // near row, and the left one is tested first.
  const RowBatch rows = RunRows(
      {{3, 60}, {1, 31}, {3, 9}, {3, 1}, {3, 10}, {1, 30}, {3, 20}});
  const ScanCount c = ExpectRunRing(rows, 100, 90, "skip at a pruner edge");
  EXPECT_TRUE(c.found);
  EXPECT_EQ(c.pairs, 20u);   // left 9 + pruner, right 10
  // A skipped row inside a run that does not prune: the pruner at offset
  // 10 now wins, after 8 left violations, and 9 right ones.
  const ScanCount inner =
      ExpectRunRing(rows, 100, 95, "skip in a violation run");
  EXPECT_EQ(inner.pairs, 18u);
  // The forward scan leaves the skipped row out of its run's count too.
  RingLayout layout;
  QueryDistanceTable table(layout.space, layout.schema, layout.query,
                           layout.selected);
  PruneContext ctx(layout.space, layout.schema, layout.query,
                   layout.selected, &table);
  ColumnarBatch cols;
  cols.Build(rows);
  const ValueId x[2] = {0, 0};
  ctx.SetCandidate(x, nullptr);
  for (RowId skip : {RowId{5}, RowId{60}, RowId{100}, kInvalidRowId}) {
    for (size_t begin : {0, 10, 60, 61, 95}) {
      uint64_t s_pairs = 0, s_checks = 0;
      bool s_found = false;
      for (size_t j = begin; j < rows.size() && !s_found; ++j) {
        if (rows.id(j) == skip) continue;
        ++s_pairs;
        s_found = ctx.Prunes(rows.row_values(j), nullptr, &s_checks);
      }
      for (uint32_t promote : kRingPromotes) {
        DominanceKernel kernel(ctx, cols, promote);
        kernel.BeginCandidate();
        uint64_t k_pairs = 0, k_checks = 0;
        EXPECT_EQ(kernel.FindPrunerForward(begin, rows.size(), skip,
                                           &k_pairs, &k_checks),
                  s_found);
        const std::string where = "forward skip=" + std::to_string(skip) +
                                  " begin=" + std::to_string(begin) +
                                  " promote=" + std::to_string(promote);
        EXPECT_EQ(k_pairs, s_pairs) << where;
        EXPECT_EQ(k_checks, s_checks) << where;
      }
    }
  }
}

// Sorted duplicate-heavy batches: every center's ring through the run walk
// matches the scalar ring (ExpectRingMatchesScalar's full matrix).
TEST(DominanceKernelRunTest, SortedDuplicatesMatchScalarRing) {
  Rng rng(2026);
  for (size_t n : {40, 150, 400}) {
    Rng drng = rng.Fork();
    Rng srng = rng.Fork();
    const std::vector<size_t> cards = {2, 3, 3};
    Dataset data = GenerateUniform(n, cards, drng);
    SimilaritySpace space;
    for (size_t c : cards) {
      space.AddCategorical(MakeRandomMatrix(c, srng, {.symmetric = false}));
    }
    std::vector<RowId> order(n);
    for (RowId r = 0; r < n; ++r) order[r] = r;
    std::sort(order.begin(), order.end(), [&](RowId a, RowId b) {
      return std::lexicographical_compare(
          data.RowValues(a), data.RowValues(a) + cards.size(),
          data.RowValues(b), data.RowValues(b) + cards.size());
    });
    RowBatch rows(cards.size(), false);
    for (RowId r : order) rows.Append(r, data.RowValues(r), nullptr);
    ColumnarBatch cols;
    cols.Build(rows);
    ASSERT_LT(cols.num_runs(), cols.size()) << n;
    const Schema& schema = data.schema();
    const std::vector<AttrId> selected = ResolveSelectedAttrs(schema, {});
    for (int qi = 0; qi < 2; ++qi) {
      Object q = SampleUniformQuery(data, rng);
      QueryDistanceTable table(space, schema, q, selected);
      PruneContext ctx(space, schema, q, selected, &table);
      ExpectRingMatchesScalar(rows, ctx, "sorted n=" + std::to_string(n));
    }
  }
}

// End to end: SRS over duplicate-heavy data replays each run's left-
// neighbour test and walks runs as pruners, with the scalar path's rows
// and counters at every threshold, sequential and chunked.
TEST(DominanceKernelRunTest, SrsOverRunsMatchesScalar) {
  testing::RandomInstance inst(99, 3000, {3, 3, 4}, false);
  SimulatedDisk disk(1024);
  auto prep = PrepareDataset(&disk, inst.data, Algorithm::kSRS, {});
  ASSERT_TRUE(prep.ok()) << prep.status();
  Rng rng(5);
  for (int qi = 0; qi < 3; ++qi) {
    const Object q =
        qi == 0 ? inst.data.GetObject(7) : SampleUniformQuery(inst.data, rng);
    RSOptions scalar;
    scalar.use_kernels = false;
    scalar.memory.pages = 4;
    auto want = SortReverseSkyline(prep->stored, inst.space, q, scalar);
    ASSERT_TRUE(want.ok()) << want.status();
    for (uint32_t promote : {0u, 1u, 2u, 16u, 1u << 30}) {
      for (int threads : {1, 3}) {
        RSOptions opts = scalar;
        opts.use_kernels = true;
        opts.kernel_promote_rows = promote;
        opts.num_threads = threads;
        auto got = SortReverseSkyline(prep->stored, inst.space, q, opts);
        ASSERT_TRUE(got.ok()) << got.status();
        const std::string label = "query " + std::to_string(qi) +
                                  " promote " + std::to_string(promote) +
                                  " threads " + std::to_string(threads);
        EXPECT_EQ(got->rows, want->rows) << label;
        EXPECT_EQ(got->stats.checks, want->stats.checks) << label;
        EXPECT_EQ(got->stats.phase1_checks, want->stats.phase1_checks)
            << label;
        EXPECT_EQ(got->stats.pair_tests, want->stats.pair_tests) << label;
        EXPECT_EQ(got->stats.phase1_survivors, want->stats.phase1_survivors)
            << label;
        EXPECT_EQ(got->stats.io, want->stats.io) << label;
      }
    }
  }
}

// The replay needs the left neighbour to be identical to the candidate:
// with a non-zero self-dissimilarity d(1, 1) = 0.9 a row of value 1 does
// not prune another one (the threshold d(q, 1) is 0.5), while the value-0
// row before the run does (d(0, 1) = 0.1). Only the run's head has that
// row as its left neighbour; the other rows of the run reach it only after
// testing their identical neighbours, and every such test must be counted.
TEST(DominanceKernelRunTest, ReplayNeedsIdenticalNeighbour) {
  DissimilarityMatrix d(3);
  for (ValueId a = 0; a < 3; ++a) {
    for (ValueId b = 0; b < 3; ++b) {
      if (a != b) d.Set(a, b, 0.7);
    }
  }
  d.Set(0, 1, 0.1);
  d.Set(1, 1, 0.9);
  d.Set(2, 1, 0.5);
  SimilaritySpace space;
  space.AddCategorical(std::move(d));
  Dataset data(Schema::Categorical({3}));
  for (int i = 0; i < 60; ++i) {
    data.AppendCategoricalRow({static_cast<ValueId>(i < 5 ? 0 : i < 45 ? 1
                                                                       : 2)});
  }
  SimulatedDisk disk(1024);
  auto prep = PrepareDataset(&disk, data, Algorithm::kSRS, {});
  ASSERT_TRUE(prep.ok()) << prep.status();
  const Object q({2});
  RSOptions scalar;
  scalar.use_kernels = false;
  scalar.memory.pages = 2;
  auto want = SortReverseSkyline(prep->stored, space, q, scalar);
  ASSERT_TRUE(want.ok()) << want.status();
  for (uint32_t promote : {1u, 16u, 1u << 30}) {
    RSOptions opts = scalar;
    opts.use_kernels = true;
    opts.kernel_promote_rows = promote;
    auto got = SortReverseSkyline(prep->stored, space, q, opts);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->rows, want->rows) << promote;
    EXPECT_EQ(got->stats.pair_tests, want->stats.pair_tests) << promote;
    EXPECT_EQ(got->stats.checks, want->stats.checks) << promote;
  }
}

TEST(DominanceKernelTest, DispatchNamesAndForceHook) {
  EXPECT_STREQ(KernelDispatchName(KernelDispatch::kScalar), "scalar");
  EXPECT_STREQ(KernelDispatchName(KernelDispatch::kAvx2), "avx2");
  ForceScalarKernelDispatchForTest(true);
  EXPECT_EQ(ActiveKernelDispatch(), KernelDispatch::kScalar);
  ForceScalarKernelDispatchForTest(false);
}

}  // namespace
}  // namespace nmrs
