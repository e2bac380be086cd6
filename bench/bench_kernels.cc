// SIMD dominance-kernel benchmark (docs/KERNELS.md). Four workloads, one
// JSON artifact (BENCH_kernels.json; runs carry a "config" field):
//
// 1. "micro" — raw pruning-condition throughput of the scalar
//    early-aborting PruneContext::Prunes loop vs the block kernel on
//    in-memory columnar batches, across matrix cardinalities and batch
//    sizes. Both paths produce the verdict and the scalar-equivalent check
//    count for every (candidate, row) pair of the workload, so throughput
//    is reported in the same unit — scalar-equivalent checks per second —
//    and the speedup column is a pure wall-clock ratio. The check totals
//    of the two paths are asserted equal before anything is reported.
//
// 2. "e2e" — full SRS and TRS queries with RSOptions::use_kernels off vs
//    on (adaptive dispatch at the default promotion threshold). Rows must
//    be bit-identical; SRS must also reproduce the check and pair counters
//    exactly (TRS reports kernel_checks instead, see docs/KERNELS.md).
//
// 2b. "e2e_runs" — SRS at the perfbench serve_mutations shape (75k rows,
//    4 attributes of 12 values, normal data): sorted, about 6.5k runs of
//    identical rows, which the kernel path tests once each (docs/KERNELS.md,
//    "Runs of identical rows"). Reports scalar vs kernel compute ms and the
//    collapse telemetry: phase-1 rows per run and the lanes (scalar probes
//    + block lanes) evaluated per pair test. Rows and counters must be
//    identical.
//
// 3. "promote_sweep" (full mode only) — end-to-end SRS compute time across
//    RSOptions::kernel_promote_rows values, the data behind the default
//    threshold (docs/KERNELS.md).
//
// ci.sh runs this with --quick and then tools/check_gates.py fails
// the build if the kernel is slower than the scalar path on the
// largest-cardinality micro config, if any run reports identical=0, if
// the e2e adaptive path or the e2e SRS phase 1 is slower than scalar
// (avx2 dispatch).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/timer.h"
#include "core/dominance.h"
#include "core/dominance_kernel.h"
#include "core/query_distance_table.h"
#include "data/columnar_batch.h"
#include "data/generators.h"

namespace nmrs {
namespace bench {
namespace {

struct MicroPoint {
  size_t cardinality = 0;
  size_t rows = 0;
  double scalar_mcps = 0;  // million scalar-equivalent checks / second
  double kernel_mcps = 0;
  double speedup = 0;
};

/// One micro configuration: `attrs` categorical attributes of equal
/// cardinality, `rows` objects, `candidates` candidate rows each checked
/// against the whole batch, `reps` timed passes per path.
MicroPoint RunMicro(size_t cardinality, size_t rows, size_t attrs,
                    size_t candidates, int reps, uint64_t seed) {
  Rng rng(seed);
  Rng drng = rng.Fork();
  Rng srng = rng.Fork();
  Rng qrng = rng.Fork();
  const std::vector<size_t> cards(attrs, cardinality);
  Dataset data = GenerateUniform(rows, cards, drng);
  SimilaritySpace space;
  for (size_t c : cards) {
    space.AddCategorical(MakeRandomMatrix(c, srng, {.symmetric = false}));
  }
  const Object query = SampleUniformQuery(data, qrng);
  const Schema& schema = data.schema();
  const std::vector<AttrId> selected = ResolveSelectedAttrs(schema, {});
  QueryDistanceTable table(space, schema, query, selected);
  PruneContext ctx(space, schema, query, selected, &table);

  RowBatch batch(attrs, false);
  for (RowId r = 0; r < data.num_rows(); ++r) {
    batch.Append(r, data.RowValues(r), nullptr);
  }
  ColumnarBatch cols;
  cols.Build(batch);
  DominanceKernel kernel(ctx, cols);

  std::vector<RowId> cand(candidates);
  for (size_t i = 0; i < candidates; ++i) {
    cand[i] = rng.Uniform(data.num_rows());
  }

  // Scalar pass: early-aborting per-row loop over the row-major batch.
  uint64_t scalar_checks = 0;
  uint64_t scalar_pruners = 0;
  Timer scalar_timer;
  for (int rep = 0; rep < reps; ++rep) {
    for (RowId x : cand) {
      ctx.SetCandidate(data.RowValues(x), nullptr);
      for (size_t j = 0; j < batch.size(); ++j) {
        scalar_pruners +=
            ctx.Prunes(batch.row_values(j), nullptr, &scalar_checks);
      }
    }
  }
  const double scalar_ms = scalar_timer.ElapsedMillis();

  // Kernel pass: same verdicts and the same per-row check accounting,
  // block-at-a-time.
  uint64_t kernel_checks = 0;
  uint64_t kernel_pruners = 0;
  Timer kernel_timer;
  for (int rep = 0; rep < reps; ++rep) {
    for (RowId x : cand) {
      ctx.SetCandidate(data.RowValues(x), nullptr);
      kernel.BeginCandidate();
      kernel_pruners += kernel.CountPruners(0, cols.size(), &kernel_checks);
    }
  }
  const double kernel_ms = kernel_timer.ElapsedMillis();

  // Equivalence before reporting: same pruner verdicts, same scalar
  // accounting — the unit of the throughput comparison.
  NMRS_CHECK_EQ(scalar_checks, kernel_checks);
  NMRS_CHECK_EQ(scalar_pruners, kernel_pruners);

  MicroPoint p;
  p.cardinality = cardinality;
  p.rows = rows;
  p.scalar_mcps =
      scalar_ms > 0 ? static_cast<double>(scalar_checks) / scalar_ms / 1e3
                    : 0;
  p.kernel_mcps =
      kernel_ms > 0 ? static_cast<double>(scalar_checks) / kernel_ms / 1e3
                    : 0;
  p.speedup = kernel_ms > 0 ? scalar_ms / kernel_ms : 0;
  return p;
}

// Shared dataset for the end-to-end workloads (e2e, promote_sweep), built
// once.
struct E2eInstance {
  Dataset data;
  SimilaritySpace space;
  std::vector<Object> queries;
  uint64_t rows = 0;
};

// An ordinal similarity measure with noise: values are ordered (ratings,
// sizes, severity scales) so dissimilarity grows with rank distance, but
// each entry is jittered and asymmetric, which breaks the triangle
// inequality — the paper's arbitrary-measure setting over a structured
// domain. Unlike fully random matrices (where dominance is vanishingly
// rare and every phase-1 candidate is a stubborn survivor), ordered
// measures make dominance dense, exercising both halves of the adaptive
// dispatch: probes that resolve and probes that escape.
DissimilarityMatrix MakeOrdinalMatrix(size_t card, Rng& rng) {
  DissimilarityMatrix mat(card);
  for (ValueId a = 0; a < card; ++a) {
    for (ValueId b = 0; b < card; ++b) {
      if (a == b) continue;
      const double rank =
          static_cast<double>(a > b ? a - b : b - a) / static_cast<double>(card);
      mat.Set(a, b, rank * rng.UniformDouble(0.6, 1.4));
    }
  }
  return mat;
}

E2eInstance MakeE2eInstance(const Args& args, int num_queries) {
  Rng rng(args.seed + 7);
  Rng drng = rng.Fork();
  Rng srng = rng.Fork();
  const std::vector<size_t> cards = {32, 32, 32, 32};
  // Paper-scale 1M rows: --quick runs a 5k-row slice, the committed
  // artifact (full mode, default scale) runs 50k rows.
  const uint64_t rows = args.Rows(1'000'000);
  E2eInstance inst{GenerateUniform(rows, cards, drng), {}, {}, rows};
  for (size_t c : cards) {
    inst.space.AddCategorical(MakeOrdinalMatrix(c, srng));
  }
  for (int i = 0; i < num_queries; ++i) {
    inst.queries.push_back(SampleUniformQuery(inst.data, rng));
  }
  return inst;
}

struct E2eOutcome {
  bool identical = true;
  double speedup_srs = 0;
};

E2eOutcome RunEndToEnd(const E2eInstance& inst, const Args& args,
                       JsonWriter* json) {
  const char* dispatch = KernelDispatchName(ActiveKernelDispatch());
  E2eOutcome out;
  Table table({"algo", "rows", "scalar_ms", "kernel_ms", "speedup",
               "promotions", "scalar_rows", "block_rows"});
  const size_t nq = std::min<size_t>(inst.queries.size(),
                                     std::max(args.queries, 2));
  for (Algorithm algo : {Algorithm::kSRS, Algorithm::kTRS}) {
    SimulatedDisk disk;
    auto prepared = PrepareDataset(&disk, inst.data, algo, {});
    NMRS_CHECK(prepared.ok()) << prepared.status();
    RSOptions opts;
    opts.use_kernels = false;  // the scalar side of the comparison
    opts.memory =
        MemoryBudget::FromFraction(0.10, prepared->stored.num_pages());
    double scalar_ms = 0, kernel_ms = 0, kchecks = 0;
    double scalar_p1_ms = 0, kernel_p1_ms = 0;
    uint64_t promotions = 0, scalar_rows = 0, block_rows = 0;
    bool identical = true;
    // Interleaved best-of-kReps per query: compute times on a shared CI
    // host swing by tens of percent, and the min of interleaved repeats
    // is the standard low-noise estimator — a drifting host slows both
    // variants' minima about equally instead of whichever ran second.
    constexpr int kReps = 3;
    for (size_t i = 0; i < nq; ++i) {
      const Object& q = inst.queries[i];
      RSOptions kopts = opts;
      kopts.use_kernels = true;  // adaptive dispatch, default threshold
      double scalar_best = 0, kernel_best = 0;
      double scalar_p1_best = 0, kernel_p1_best = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        auto scalar =
            RunReverseSkyline(*prepared, inst.space, q, algo, opts);
        auto kernel =
            RunReverseSkyline(*prepared, inst.space, q, algo, kopts);
        NMRS_CHECK(scalar.ok() && kernel.ok());
        if (rep == 0) {
          if (scalar->rows != kernel->rows) identical = false;
          if (algo == Algorithm::kSRS &&
              (scalar->stats.checks != kernel->stats.checks ||
               scalar->stats.pair_tests != kernel->stats.pair_tests)) {
            identical = false;
          }
          scalar_best = scalar->stats.compute_millis;
          kernel_best = kernel->stats.compute_millis;
          scalar_p1_best = scalar->stats.phase1_millis;
          kernel_p1_best = kernel->stats.phase1_millis;
          kchecks += static_cast<double>(kernel->stats.kernel_checks);
          promotions += kernel->stats.kernel_promotions;
          scalar_rows += kernel->stats.kernel_scalar_rows;
          block_rows += kernel->stats.kernel_block_rows;
        } else {
          scalar_best = std::min(scalar_best, scalar->stats.compute_millis);
          kernel_best = std::min(kernel_best, kernel->stats.compute_millis);
          scalar_p1_best =
              std::min(scalar_p1_best, scalar->stats.phase1_millis);
          kernel_p1_best =
              std::min(kernel_p1_best, kernel->stats.phase1_millis);
        }
      }
      scalar_ms += scalar_best;
      kernel_ms += kernel_best;
      scalar_p1_ms += scalar_p1_best;
      kernel_p1_ms += kernel_p1_best;
    }
    out.identical = out.identical && identical;
    const double speedup = kernel_ms > 0 ? scalar_ms / kernel_ms : 0;
    if (algo == Algorithm::kSRS) out.speedup_srs = speedup;
    table.AddRow({std::string(AlgorithmName(algo)),
                  std::to_string(inst.rows), Fmt(scalar_ms, 2),
                  Fmt(kernel_ms, 2), Fmt(speedup, 2),
                  std::to_string(promotions), std::to_string(scalar_rows),
                  std::to_string(block_rows)});
    json->BeginRun();
    json->Field("config", std::string("e2e"));
    json->Field("dispatch", std::string(dispatch));
    json->Field("algo", std::string(AlgorithmName(algo)));
    json->Field("num_rows", inst.rows);
    json->Field("num_queries", static_cast<uint64_t>(nq));
    json->Field("promote_rows",
                static_cast<uint64_t>(RSOptions{}.kernel_promote_rows));
    json->Field("scalar_compute_millis", scalar_ms);
    json->Field("kernel_compute_millis", kernel_ms);
    json->Field("scalar_phase1_millis", scalar_p1_ms);
    json->Field("kernel_phase1_millis", kernel_p1_ms);
    json->Field("speedup", speedup);
    json->Field("avg_kernel_checks",
                kchecks / static_cast<double>(nq));
    json->Field("kernel_promotions", promotions);
    json->Field("kernel_scalar_rows", scalar_rows);
    json->Field("kernel_block_rows", block_rows);
    json->Field("identical", static_cast<uint64_t>(identical ? 1 : 0));
  }
  table.Print();
  return out;
}

// SRS at the serve_mutations shape (see the header comment, "e2e_runs").
bool RunCollapsedSrs(const Args& args, JsonWriter* json) {
  const char* dispatch = KernelDispatchName(ActiveKernelDispatch());
  Rng rng(args.seed + 11);
  Rng drng = rng.Fork();
  Rng srng = rng.Fork();
  const std::vector<size_t> cards(4, 12);
  constexpr uint64_t kRows = 75000;
  const Dataset data = GenerateNormal(kRows, cards, drng);
  SimilaritySpace space;
  for (size_t c : cards) space.AddCategorical(MakeRandomMatrix(c, srng));
  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, data, Algorithm::kSRS, {});
  NMRS_CHECK(prepared.ok()) << prepared.status();
  RSOptions opts;
  opts.use_kernels = false;
  RSOptions kopts = opts;
  kopts.use_kernels = true;

  // Runs of the phase-1 batches, as the kernels see them.
  uint64_t runs = 0;
  const StoredDataset& stored = prepared->stored;
  for (PageId start = 0; start < stored.num_pages();
       start += opts.memory.pages) {
    RowBatch batch(cards.size(), false);
    const PageId end =
        std::min<PageId>(start + opts.memory.pages, stored.num_pages());
    for (PageId p = start; p < end; ++p) {
      NMRS_CHECK(stored.ReadPage(p, &batch).ok());
    }
    ColumnarBatch cols;
    cols.Build(batch);
    runs += cols.num_runs();
  }

  const size_t nq = args.quick ? 4 : 16;
  double scalar_ms = 0, kernel_ms = 0;
  uint64_t pair_tests = 0, scalar_rows = 0, block_rows = 0, kchecks = 0;
  bool identical = true;
  constexpr int kReps = 3;  // interleaved best-of, as in RunEndToEnd
  for (size_t i = 0; i < nq; ++i) {
    const Object q = SampleUniformQuery(data, rng);
    double scalar_best = 0, kernel_best = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      auto scalar = RunReverseSkyline(*prepared, space, q, Algorithm::kSRS,
                                      opts);
      auto kernel = RunReverseSkyline(*prepared, space, q, Algorithm::kSRS,
                                      kopts);
      NMRS_CHECK(scalar.ok() && kernel.ok());
      const QueryStats& s = scalar->stats;
      const QueryStats& k = kernel->stats;
      if (rep == 0) {
        identical = identical && scalar->rows == kernel->rows &&
                    s.checks == k.checks && s.pair_tests == k.pair_tests &&
                    s.phase1_checks == k.phase1_checks &&
                    s.phase1_survivors == k.phase1_survivors &&
                    s.io == k.io;
        pair_tests += k.pair_tests;
        scalar_rows += k.kernel_scalar_rows;
        block_rows += k.kernel_block_rows;
        kchecks += k.kernel_checks;
        scalar_best = s.compute_millis;
        kernel_best = k.compute_millis;
      } else {
        scalar_best = std::min(scalar_best, s.compute_millis);
        kernel_best = std::min(kernel_best, k.compute_millis);
      }
    }
    scalar_ms += scalar_best;
    kernel_ms += kernel_best;
  }
  const double speedup = kernel_ms > 0 ? scalar_ms / kernel_ms : 0;
  const double rows_per_run =
      runs > 0 ? static_cast<double>(kRows) / static_cast<double>(runs) : 0;
  const double lanes_per_pair =
      pair_tests > 0 ? static_cast<double>(scalar_rows + block_rows) /
                           static_cast<double>(pair_tests)
                     : 0;
  Table table({"rows", "runs", "rows/run", "scalar_ms", "kernel_ms",
               "speedup", "lanes/pair_test"});
  table.AddRow({std::to_string(kRows), std::to_string(runs),
                Fmt(rows_per_run, 2), Fmt(scalar_ms, 2), Fmt(kernel_ms, 2),
                Fmt(speedup, 2), Fmt(lanes_per_pair, 3)});
  table.Print();
  json->BeginRun();
  json->Field("config", std::string("e2e_runs"));
  json->Field("dispatch", std::string(dispatch));
  json->Field("algo", std::string("SRS"));
  json->Field("num_rows", kRows);
  json->Field("num_attrs", static_cast<uint64_t>(cards.size()));
  json->Field("cardinality", static_cast<uint64_t>(cards[0]));
  json->Field("num_queries", static_cast<uint64_t>(nq));
  json->Field("phase1_runs", runs);
  json->Field("rows_per_run", rows_per_run);
  json->Field("scalar_compute_millis", scalar_ms);
  json->Field("kernel_compute_millis", kernel_ms);
  json->Field("speedup", speedup);
  json->Field("pair_tests", pair_tests);
  json->Field("kernel_checks", kchecks);
  json->Field("kernel_scalar_rows", scalar_rows);
  json->Field("kernel_block_rows", block_rows);
  json->Field("lanes_per_pair_test", lanes_per_pair);
  json->Field("identical", static_cast<uint64_t>(identical ? 1 : 0));
  return identical;
}

// Full-mode sweep of the promotion threshold on end-to-end SRS: the data
// behind the kernel_promote_rows default (0 = promote immediately, the
// pre-adaptive behavior; large = never promote, pure scalar probe).
void RunPromoteSweep(const E2eInstance& inst, const Args& args,
                     JsonWriter* json) {
  const char* dispatch = KernelDispatchName(ActiveKernelDispatch());
  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, inst.data, Algorithm::kSRS, {});
  NMRS_CHECK(prepared.ok()) << prepared.status();
  RSOptions base;
  base.memory =
      MemoryBudget::FromFraction(0.10, prepared->stored.num_pages());
  base.use_kernels = true;
  const size_t nq = std::min<size_t>(inst.queries.size(),
                                     std::max(args.queries, 2));
  Table table({"promote_rows", "kernel_ms", "promotions", "scalar_rows",
               "block_rows"});
  for (uint32_t promote : {0u, 4u, 8u, 16u, 32u, 64u, 1u << 30}) {
    RSOptions opts = base;
    opts.kernel_promote_rows = promote;
    double kernel_ms = 0;
    uint64_t promotions = 0, scalar_rows = 0, block_rows = 0;
    for (size_t i = 0; i < nq; ++i) {
      auto res = RunReverseSkyline(*prepared, inst.space, inst.queries[i],
                                   Algorithm::kSRS, opts);
      NMRS_CHECK(res.ok()) << res.status();
      kernel_ms += res->stats.compute_millis;
      promotions += res->stats.kernel_promotions;
      scalar_rows += res->stats.kernel_scalar_rows;
      block_rows += res->stats.kernel_block_rows;
    }
    const std::string label =
        promote == (1u << 30) ? "never" : std::to_string(promote);
    table.AddRow({label, Fmt(kernel_ms, 2), std::to_string(promotions),
                  std::to_string(scalar_rows), std::to_string(block_rows)});
    json->BeginRun();
    json->Field("config", std::string("promote_sweep"));
    json->Field("dispatch", std::string(dispatch));
    json->Field("algo", std::string("SRS"));
    json->Field("num_rows", inst.rows);
    json->Field("num_queries", static_cast<uint64_t>(nq));
    json->Field("promote_rows", static_cast<uint64_t>(promote));
    json->Field("kernel_compute_millis", kernel_ms);
    json->Field("kernel_promotions", promotions);
    json->Field("kernel_scalar_rows", scalar_rows);
    json->Field("kernel_block_rows", block_rows);
  }
  table.Print();
}

void Run(int argc, char** argv) {
  Args args = Args::Parse(argc, argv, 1.0);
  JsonWriter json("kernels");
  const char* dispatch = KernelDispatchName(ActiveKernelDispatch());

  Banner("Block dominance kernels: check throughput, scalar vs kernel");
  std::printf("runtime dispatch: %s\n", dispatch);

  const std::vector<size_t> cardinalities = {8, 64, 512};
  const std::vector<size_t> batch_rows =
      args.quick ? std::vector<size_t>{2048}
                 : std::vector<size_t>{1024, 8192};
  const size_t attrs = 4;
  const size_t candidates = 32;

  Table table({"cardinality", "rows", "scalar_Mchk/s", "kernel_Mchk/s",
               "speedup"});
  double high_card_speedup = 0;
  for (size_t card : cardinalities) {
    for (size_t rows : batch_rows) {
      // Size reps so every point runs on the order of a hundred
      // milliseconds per path — short windows are too noisy on shared
      // 1-core containers to gate on.
      const int reps = static_cast<int>(
          std::max<uint64_t>(1, 32'000'000 / (rows * candidates)));
      MicroPoint p =
          RunMicro(card, rows, attrs, candidates, reps, args.seed);
      table.AddRow({std::to_string(p.cardinality), std::to_string(p.rows),
                    Fmt(p.scalar_mcps, 1), Fmt(p.kernel_mcps, 1),
                    Fmt(p.speedup, 2)});
      json.BeginRun();
      json.Field("config", std::string("micro"));
      json.Field("dispatch", std::string(dispatch));
      json.Field("cardinality", static_cast<uint64_t>(p.cardinality));
      json.Field("num_rows", static_cast<uint64_t>(p.rows));
      json.Field("num_attrs", static_cast<uint64_t>(attrs));
      json.Field("scalar_mchecks_per_sec", p.scalar_mcps);
      json.Field("kernel_mchecks_per_sec", p.kernel_mcps);
      json.Field("speedup", p.speedup);
      // The gate keys on the largest cardinality at the largest batch.
      if (card == cardinalities.back() && rows == batch_rows.back()) {
        high_card_speedup = p.speedup;
      }
    }
  }
  table.Print();

  // One dataset for every end-to-end workload, of at least 16 queries.
  const E2eInstance inst =
      MakeE2eInstance(args, std::max(16, args.queries));

  Banner("End-to-end SRS/TRS with use_kernels (adaptive dispatch)");
  const E2eOutcome e2e = RunEndToEnd(inst, args, &json);

  Banner("SRS over runs of identical rows (serve_mutations shape)");
  const bool runs_identical = RunCollapsedSrs(args, &json);

  if (!args.quick) {
    Banner("Promotion-threshold sweep (SRS end-to-end)");
    RunPromoteSweep(inst, args, &json);
  }

  ShapeCheck("kernel-results-identical", e2e.identical && runs_identical,
             "reverse-skyline rows (and SRS counters) bit-identical with "
             "use_kernels on");
  // The 1.5x expectation is about the SIMD lane evaluators; the portable
  // blocked fallback (scalar dispatch / NMRS_NO_SIMD) is only expected to
  // be around parity, so the check does not bind there.
  const bool simd = ActiveKernelDispatch() == KernelDispatch::kAvx2;
  ShapeCheck(
      "kernel-1.5x-check-throughput-high-cardinality",
      !simd || high_card_speedup >= 1.5,
      "kernel " + Fmt(high_card_speedup, 2) +
          "x scalar checks/sec at cardinality 512 (need >= 1.5x on avx2 "
          "dispatch; actual dispatch " + dispatch + ")");

  const char* out = "BENCH_kernels.json";
  if (json.WriteFile(out)) std::printf("wrote %s\n", out);
}

}  // namespace
}  // namespace bench
}  // namespace nmrs

int main(int argc, char** argv) {
  nmrs::bench::Run(argc, argv);
  return 0;
}
