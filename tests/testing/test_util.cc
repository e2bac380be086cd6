#include "testing/test_util.h"

#include "core/dominance.h"
#include "core/dominance_kernel.h"
#include "core/query_distance_table.h"
#include "data/columnar_batch.h"
#include "gtest/gtest.h"

namespace nmrs {
namespace testing {

RunningExample::RunningExample()
    : dataset(Schema::Categorical({3, 2, 3})) {
  // Figure 1 distance functions.
  DissimilarityMatrix d1(3);  // OS
  d1.SetSymmetric(kMSW, kRHL, 0.8);
  d1.SetSymmetric(kMSW, kSL, 1.0);
  d1.SetSymmetric(kRHL, kSL, 0.1);

  DissimilarityMatrix d2(2);  // Processor
  d2.SetSymmetric(kAMD, kIntel, 0.5);

  DissimilarityMatrix d3(3);  // DB
  d3.SetSymmetric(kInformix, kDB2, 0.5);
  d3.SetSymmetric(kInformix, kOracle, 0.9);
  d3.SetSymmetric(kDB2, kOracle, 0.4);

  space.AddCategorical(std::move(d1));
  space.AddCategorical(std::move(d2));
  space.AddCategorical(std::move(d3));

  // Table 1 objects (0-based ids O1..O6 -> rows 0..5).
  dataset.AppendCategoricalRow({kMSW, kAMD, kDB2});       // O1
  dataset.AppendCategoricalRow({kRHL, kAMD, kInformix});  // O2
  dataset.AppendCategoricalRow({kSL, kIntel, kOracle});   // O3
  dataset.AppendCategoricalRow({kMSW, kAMD, kDB2});       // O4 (dup of O1)
  dataset.AppendCategoricalRow({kRHL, kAMD, kInformix});  // O5 (dup of O2)
  dataset.AppendCategoricalRow({kMSW, kIntel, kDB2});     // O6 (== Q)

  query = Object({kMSW, kIntel, kDB2});
}

RandomInstance::RandomInstance(uint64_t seed, uint64_t num_rows,
                               const std::vector<size_t>& cardinalities,
                               bool normal_distribution)
    : data(Schema::Categorical(cardinalities)) {
  Rng rng(seed);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  data = normal_distribution
             ? GenerateNormal(num_rows, cardinalities, data_rng)
             : GenerateUniform(num_rows, cardinalities, data_rng);
  space = MakeRandomSpace(cardinalities, space_rng);
}

Status PruneCandidatesAgainstShard(const StoredDataset& data,
                                   const SimilaritySpace& space,
                                   const Object& query,
                                   const RowBatch& candidates,
                                   const RSOptions& opts, PagedReader* reader,
                                   std::vector<uint8_t>* pruned,
                                   QueryStats* stats) {
  pruned->assign(candidates.size(), 0);
  if (candidates.size() == 0) return Status::OK();
  const Schema& schema = data.schema();
  const size_t m = schema.num_attributes();
  const bool numerics = schema.NumNumeric() > 0;

  const std::vector<AttrId> selected =
      ResolveSelectedAttrs(schema, opts.selected_attrs);
  const QueryDistanceTable qtable(space, schema, query, selected,
                                  opts.overlay);
  PruneContext ctx(space, schema, query, selected, &qtable);

  const uint64_t num_pages = data.num_pages();
  RowBatch page(m, numerics);
  ColumnarBatch cols;
  // One candidate-major pass per streamed page, with the same early-out a
  // phase-2 batch gets: a candidate already pruned is never re-checked.
  for (PageId dp = 0; dp < num_pages; ++dp) {
    page.Clear();
    NMRS_RETURN_IF_ERROR(data.ReadPageVia(reader, dp, &page));
    if (opts.use_kernels) {
      cols.Build(page);
      DominanceKernel kernel(ctx, cols, opts.kernel_promote_rows);
      for (size_t i = 0; i < candidates.size(); ++i) {
        if ((*pruned)[i]) continue;
        ctx.SetCandidate(candidates.row_values(i), candidates.row_numerics(i));
        kernel.BeginCandidate();
        if (kernel.FindPrunerForward(0, page.size(), candidates.id(i),
                                     &stats->pair_tests, &stats->checks)) {
          (*pruned)[i] = 1;
        }
      }
      stats->kernel_checks += kernel.kernel_checks();
      stats->kernel_promotions += kernel.promotions();
      stats->kernel_scalar_rows += kernel.scalar_rows();
      stats->kernel_block_rows += kernel.block_rows();
      continue;
    }
    for (size_t i = 0; i < candidates.size(); ++i) {
      if ((*pruned)[i]) continue;
      ctx.SetCandidate(candidates.row_values(i), candidates.row_numerics(i));
      const RowId x_id = candidates.id(i);
      for (size_t j = 0; j < page.size(); ++j) {
        if (page.id(j) == x_id) continue;
        ++stats->pair_tests;
        if (ctx.Prunes(page.row_values(j), page.row_numerics(j),
                       &stats->checks)) {
          (*pruned)[i] = 1;
          break;
        }
      }
    }
  }
  return Status::OK();
}

void ExpectResidentTrs(const ReverseSkylineResult& got,
                       const ReverseSkylineResult& trs,
                       const std::string& label) {
  const QueryStats& st = got.stats;
  ASSERT_EQ(trs.stats.phase1_batches, 1u) << label << ": not one batch";
  EXPECT_EQ(got.rows, trs.rows) << label;
  EXPECT_EQ(st.checks, trs.stats.phase1_checks) << label;
  EXPECT_EQ(st.phase1_checks, st.checks) << label;
  EXPECT_EQ(st.pair_tests, trs.stats.pair_tests) << label;
  EXPECT_EQ(st.phase1_batches, 1u) << label;
  EXPECT_EQ(st.phase1_survivors, trs.rows.size()) << label;
  EXPECT_EQ(st.result_size, trs.rows.size()) << label;
  EXPECT_EQ(st.phase2_checks, 0u) << label;
  EXPECT_EQ(st.phase2_batches, 0u) << label;
  EXPECT_EQ(st.kernel_checks + st.kernel_scalar_rows + st.kernel_block_rows,
            0u)
      << label;
  EXPECT_EQ(st.io, IoStats{}) << label;
}

}  // namespace testing
}  // namespace nmrs
