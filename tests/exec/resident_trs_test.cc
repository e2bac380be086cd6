// Resident TRS oracle suite (QueryEngine, docs/SHARDING.md): a TRS engine
// whose shard AL-Tree fits RSOptions::memory answers every query from that
// tree, with no page read and no phase 2. Four contracts:
//
//  * rows: on random instances the engine's rows equal a sequential
//    RunReverseSkyline — TRS and T-TRS, duplicate rows, attribute subsets,
//    mixed numeric schemas with leaf-sharing and whole-row copies, an
//    rs.overlay template, 1-4 shards, both partitioners; every shard must
//    have answered resident (no IO, no phase-2 batch);
//  * counters: on all-categorical data that TRS loads as one phase-1
//    batch, each query's checks and pair tests equal TreeReverseSkyline's
//    with use_kernels = false (both trees order children for search), with
//    every phase-2 counter and the IO at 0;
//  * determinism: every counter is equal at 1/2/8 workers, at num_threads
//    1 and 3, and between the batch that builds the trees and one that
//    reuses them; the builds appear in total_io only, one clean scan per
//    shard; a batch that reads the shards' leaf tables, from up to 8
//    workers at once, exports the same candidates as the batch that built
//    them;
//  * non-fitting shards: with 1 KiB pages and a 2-page budget the tree
//    misses the fit rule, and the engine reproduces sequential TRS counters
//    and IO exactly. Its first batch's try of the tree under the budget
//    costs one phase-1 batch of pages in total_io and keeps no tree, so
//    later batches' total_io is the sequential sum. At two shards such a
//    shard gets its whole tree from the verify, and the scatter still runs
//    TRS per query in later batches; a shard whose build fails (a
//    corrupted sealed page)
//    also runs TRS per query, and the next batch retries the build.
//
// Deliberately gtest-free so ci.sh can run it under ASan/UBSan with only
// instrumented code. Exits 0 when every check holds, 1 otherwise.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "exec/query_engine.h"
#include "shard/shard_plan.h"
#include "sim/matrix_overlay.h"
#include "sim/similarity_space.h"
#include "storage/disk_view.h"
#include "testing/shard_index.h"

namespace nmrs {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

struct Instance {
  Dataset data;
  SimilaritySpace space;
  std::vector<Object> queries;
};

std::vector<Object> Queries(const Dataset& data, Rng& rng, int n) {
  std::vector<Object> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(i % 2 == 0 ? SampleRowQuery(data, rng)
                             : SampleUniformQuery(data, rng));
  }
  return out;
}

// All-categorical; small cardinalities make many whole-row duplicates.
Instance Categorical(Rng& rng, uint64_t rows,
                     const std::vector<size_t>& cards) {
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  Instance inst{GenerateNormal(rows, cards, data_rng),
                MakeRandomSpace(cards, space_rng),
                {}};
  inst.queries = Queries(inst.data, rng, 6);
  return inst;
}

// Categorical attributes followed by numeric ones, plus whole-row copies
// and rows that share a copy's categorical values with other numerics.
Instance Mixed(Rng& rng, uint64_t rows, const std::vector<size_t>& cards,
               size_t num_numeric) {
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  const Dataset base = GenerateMixed(rows, cards, num_numeric, 4, data_rng);
  Instance inst{Dataset(base.schema()), {}, {}};
  const size_t m = base.num_attributes();
  auto append = [&](RowId r, double shift) {
    std::vector<ValueId> values(base.RowValues(r), base.RowValues(r) + m);
    std::vector<double> numerics(base.RowNumerics(r), base.RowNumerics(r) + m);
    for (size_t a = cards.size(); a < m; ++a) {
      numerics[a] = std::min(100.0, numerics[a] + shift);
    }
    inst.data.AppendRow(values, numerics);
  };
  for (RowId r = 0; r < base.num_rows(); ++r) {
    append(r, 0.0);
    if (r % 7 == 0) append(r, 0.0);  // whole-row copy
    if (r % 11 == 0) append(r, 0.5);  // same categories, other numerics
  }
  for (size_t card : cards) {
    inst.space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }
  for (size_t i = 0; i < num_numeric; ++i) {
    inst.space.AddNumeric(NumericDissimilarity(0.01));
  }
  inst.queries = Queries(inst.data, rng, 6);
  return inst;
}

// Every query through RunReverseSkyline(algo), one after another, over a
// DiskView of the prepared file.
std::vector<ReverseSkylineResult> Sequential(
    const PreparedDataset& prep, const Instance& inst, const RSOptions& rs,
    Algorithm algo = Algorithm::kTRS) {
  DiskView view(prep.stored.disk());
  const PreparedDataset local{
      StoredDataset(&view, prep.stored.file(), prep.stored.schema(),
                    prep.stored.num_rows()),
      prep.attr_order, 0};
  std::vector<ReverseSkylineResult> out;
  for (const Object& q : inst.queries) {
    auto r = RunReverseSkyline(local, inst.space, q, algo, rs);
    NMRS_CHECK(r.ok()) << r.status();
    out.push_back(std::move(*r));
  }
  return out;
}

std::unique_ptr<ShardedDataset> Partition(const PreparedDataset& prep,
                                          int shards, ShardBy by) {
  ShardPlanOptions plan;
  plan.num_shards = shards;
  plan.shard_by = by;
  auto sharded = ShardedDataset::Partition(prep, plan);
  NMRS_CHECK(sharded.ok()) << sharded.status();
  return std::make_unique<ShardedDataset>(std::move(*sharded));
}

BatchResult Run(QueryEngine& engine, const Instance& inst) {
  auto batch = engine.RunBatch(inst.queries);
  NMRS_CHECK(batch.ok()) << batch.status();
  NMRS_CHECK(batch->ok()) << batch->first_error();
  return std::move(*batch);
}

bool SameCounters(const QueryStats& a, const QueryStats& b) {
  return a.checks == b.checks && a.phase1_checks == b.phase1_checks &&
         a.phase2_checks == b.phase2_checks && a.pair_tests == b.pair_tests &&
         a.kernel_checks == b.kernel_checks &&
         a.kernel_promotions == b.kernel_promotions &&
         a.kernel_scalar_rows == b.kernel_scalar_rows &&
         a.kernel_block_rows == b.kernel_block_rows &&
         a.phase1_batches == b.phase1_batches &&
         a.phase1_survivors == b.phase1_survivors &&
         a.phase2_batches == b.phase2_batches &&
         a.result_size == b.result_size && a.io == b.io;
}

// ---- Rows ----

// What the row sweep reached: answers with rows, and answer rows whose
// leaf holds another row too (a whole-row duplicate, or the same values
// and numeric buckets with other numerics).
struct RowTally {
  uint64_t cases = 0;
  uint64_t nonempty = 0;
  uint64_t rows = 0;
  uint64_t duplicated_rows = 0;
};

void CheckRowsTrial(uint64_t seed, RowTally* tally) {
  Rng rng(seed);
  const bool numeric = rng.Bernoulli(0.4);
  // Cardinalities up to 6 x 7 x 8 leave most value combinations to a few
  // rows, so answers are non-empty; up to 1200 rows still repeat some.
  Instance inst = numeric ? Mixed(rng, 150 + rng.Uniform(500), {3, 4},
                                  1 + rng.Uniform(2))
                          : Categorical(rng, 200 + rng.Uniform(1000),
                                        {3 + rng.Uniform(4), 7, 8});
  const size_t m = inst.data.num_attributes();
  RSOptions rs;
  if (rng.Bernoulli(0.4)) {
    // A random non-empty subset in random order.
    for (AttrId a = 0; a < m; ++a) {
      if (rng.Bernoulli(0.5)) rs.selected_attrs.push_back(a);
    }
    if (rs.selected_attrs.empty()) rs.selected_attrs.push_back(m - 1);
    if (rng.Bernoulli(0.5)) {
      std::reverse(rs.selected_attrs.begin(), rs.selected_attrs.end());
    }
  }
  std::optional<MatrixOverlay> overlay;
  if (rng.Bernoulli(0.3)) {
    overlay.emplace(MakeRandomOverlay(inst.space, rng, 0.2));
    rs.overlay = &*overlay;
  }
  // T-TRS (Z-order tiled data, TRS query processing) answers resident too.
  const Algorithm algo =
      rng.Bernoulli(0.25) ? Algorithm::kTileTRS : Algorithm::kTRS;
  const int shards = 1 + static_cast<int>(rng.Uniform(4));
  const ShardBy by = rng.Bernoulli(0.5) ? ShardBy::kZOrderRange
                                        : ShardBy::kHash;
  const std::string label = "rows seed " + std::to_string(seed) + " " +
                            std::string(AlgorithmName(algo)) + " shards " +
                            std::to_string(shards);

  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, inst.data, algo);
  NMRS_CHECK(prep.ok()) << prep.status();
  const std::vector<ReverseSkylineResult> want =
      Sequential(*prep, inst, rs, algo);
  const auto sharded = Partition(*prep, shards, by);
  EngineOptions opts;
  opts.num_workers = 2;
  opts.rs = rs;
  QueryEngine engine(*sharded, inst.space, algo, opts);
  const BatchResult got = Run(engine, inst);
  for (size_t i = 0; i < inst.queries.size(); ++i) {
    const QueryStats& st = got.results[i].stats;
    const std::string q = label + " query " + std::to_string(i);
    Expect(got.results[i].rows == want[i].rows, q + ": rows");
    Expect(st.io == IoStats{} && st.phase2_batches == 0,
           q + ": a shard was not resident");
    ++tally->cases;
    tally->nonempty += want[i].rows.empty() ? 0 : 1;
    for (RowId r : want[i].rows) {
      ++tally->rows;
      const ValueId* v = inst.data.RowValues(r);
      for (RowId o = 0; o < inst.data.num_rows(); ++o) {
        if (o != r && std::equal(v, v + m, inst.data.RowValues(o))) {
          ++tally->duplicated_rows;
          break;
        }
      }
    }
  }
}

// ---- Counters ----

// All-categorical data TRS loads as one batch: the resident answer must
// equal TreeReverseSkyline's phase 1 check for check.
void CheckCounters(uint64_t seed, const std::vector<AttrId>& subset,
                   bool with_overlay) {
  Rng rng(seed);
  Instance inst = Categorical(rng, 3000, {4, 6, 7});
  RSOptions rs;
  rs.selected_attrs = subset;
  std::optional<MatrixOverlay> overlay;
  if (with_overlay) {
    overlay.emplace(MakeRandomOverlay(inst.space, rng, 0.2));
    rs.overlay = &*overlay;
  }
  RSOptions scalar = rs;
  scalar.use_kernels = false;
  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, inst.data, Algorithm::kTRS);
  NMRS_CHECK(prep.ok()) << prep.status();
  const std::vector<ReverseSkylineResult> trs = Sequential(*prep, inst, scalar);
  EngineOptions opts;
  opts.rs = rs;
  QueryEngine engine(*prep, inst.space, Algorithm::kTRS, opts);
  const BatchResult got = Run(engine, inst);
  const std::string label = "counters seed " + std::to_string(seed) +
                            " subset " + std::to_string(subset.size()) +
                            " overlay " + std::to_string(with_overlay);
  for (size_t i = 0; i < inst.queries.size(); ++i) {
    const QueryStats& st = got.results[i].stats;
    const QueryStats& want = trs[i].stats;
    const std::string q = label + " query " + std::to_string(i);
    Expect(want.phase1_batches == 1, q + ": TRS needed more than one batch");
    Expect(got.results[i].rows == trs[i].rows, q + ": rows");
    Expect(st.checks == want.phase1_checks, q + ": checks");
    Expect(st.phase1_checks == st.checks, q + ": phase-1 checks");
    Expect(st.pair_tests == want.pair_tests, q + ": pair tests");
    Expect(st.phase1_batches == 1, q + ": phase-1 batches");
    Expect(st.phase2_checks == 0 && st.phase2_batches == 0,
           q + ": phase 2 ran");
    Expect(st.phase1_survivors == trs[i].rows.size() &&
               st.result_size == trs[i].rows.size(),
           q + ": survivors");
    Expect(st.kernel_checks == 0 && st.kernel_scalar_rows == 0,
           q + ": kernel probe ran");
    Expect(st.io == IoStats{}, q + ": io");
  }
}

// ---- Determinism ----

void CheckDeterminism(const Instance& inst, const std::string& name) {
  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, inst.data, Algorithm::kTRS);
  NMRS_CHECK(prep.ok()) << prep.status();
  for (int shards : {1, 2}) {
    const auto sharded = Partition(*prep, shards, ShardBy::kZOrderRange);
    // Every shard's tree is built under the budget, and fits.
    const uint64_t budget = RSOptions{}.memory.Bytes(disk.page_size());
    IoStats build_io;
    for (int s = 0; s < shards; ++s) {
      const testing::ShardIndexBuild index = testing::BuildShardIndexForTest(
          sharded->shard(s), prep->attr_order, budget);
      Expect(index.fits, name + ": the tree misses the default budget");
      build_io += index.io;
    }
    const std::string label = name + " shards " + std::to_string(shards);
    std::vector<ReverseSkylineResult> want;
    std::vector<ShardQueryBreakdown> want_breakdown;
    MessageStats want_messages;
    for (size_t workers : {1u, 2u, 8u}) {
      for (int threads : {1, 3}) {
        EngineOptions opts;
        opts.num_workers = workers;
        opts.rs.num_threads = threads;
        QueryEngine engine(*sharded, inst.space, Algorithm::kTRS, opts);
        const BatchResult build = Run(engine, inst);
        const BatchResult reuse = Run(engine, inst);
        const std::string run = label + " workers " +
                                std::to_string(workers) + " threads " +
                                std::to_string(threads);
        Expect(build.total_io == build_io, run + ": build IO");
        Expect(reuse.total_io == IoStats{}, run + ": reuse IO");
        Expect(engine.shard_index_bytes(0) > 0, run + ": no shard index");
        if (want.empty()) {
          want = build.results;
          want_breakdown = build.breakdown;
          want_messages = build.total_messages;
        }
        Expect(build.total_messages == want_messages &&
                   reuse.total_messages == want_messages,
               run + ": messages");
        for (size_t i = 0; i < inst.queries.size(); ++i) {
          const std::string q = run + " query " + std::to_string(i);
          Expect(build.results[i].rows == want[i].rows &&
                     reuse.results[i].rows == want[i].rows,
                 q + ": rows");
          Expect(SameCounters(build.results[i].stats, want[i].stats),
                 q + ": build-batch counters");
          Expect(SameCounters(reuse.results[i].stats, want[i].stats),
                 q + ": reuse-batch counters");
          // The exported candidates: per-shard counts and their traffic.
          for (const BatchResult* b : {&build, &reuse}) {
            Expect(b->breakdown[i].shard_candidates ==
                           want_breakdown[i].shard_candidates &&
                       b->breakdown[i].messages == want_breakdown[i].messages,
                   q + ": candidates");
          }
          Expect(want[i].stats.io == IoStats{} &&
                     want[i].stats.phase2_batches == 0,
                 q + ": not resident");
        }
      }
    }
  }
}

// ---- Non-fitting shards ----

void CheckNonFitting(const Instance& inst, const std::string& name) {
  SimulatedDisk disk(1024);
  auto prep = PrepareDataset(&disk, inst.data, Algorithm::kTRS);
  NMRS_CHECK(prep.ok()) << prep.status();
  RSOptions rs;
  rs.memory = MemoryBudget{2};
  const testing::ShardIndexBuild index = testing::BuildShardIndexForTest(
      prep->stored, prep->attr_order, rs.memory.Bytes(disk.page_size()));
  Expect(!index.fits, name + ": the tree fits 2 KiB; the leg tests nothing");
  Expect(index.io.TotalReads() < prep->stored.num_pages(),
         name + ": the try under the budget read the whole shard");
  const std::vector<ReverseSkylineResult> want = Sequential(*prep, inst, rs);
  IoStats want_io;
  for (const ReverseSkylineResult& r : want) want_io += r.stats.io;
  for (size_t workers : {1u, 4u}) {
    EngineOptions opts;
    opts.num_workers = workers;
    opts.rs = rs;
    QueryEngine engine(*prep, inst.space, Algorithm::kTRS, opts);
    const BatchResult build = Run(engine, inst);
    const BatchResult reuse = Run(engine, inst);
    const std::string run = name + " workers " + std::to_string(workers);
    IoStats build_total = want_io;
    build_total += index.io;
    Expect(build.total_io == build_total, run + ": build-batch total IO");
    Expect(reuse.total_io == want_io, run + ": reuse-batch total IO");
    Expect(engine.shard_index_bytes(0) == 0, run + ": kept a tree");
    for (size_t i = 0; i < inst.queries.size(); ++i) {
      const std::string q = run + " query " + std::to_string(i);
      Expect(build.results[i].rows == want[i].rows, q + ": rows");
      Expect(SameCounters(build.results[i].stats, want[i].stats),
             q + ": build-batch counters");
      Expect(SameCounters(reuse.results[i].stats, want[i].stats),
             q + ": reuse-batch counters");
    }
  }

  // Two shards: each shard's tree is tried under the budget first. A shard
  // that misses it then gets its whole tree from the verify, and a later
  // batch's scatter still runs TRS per query instead of reading that tree.
  const auto sharded = Partition(*prep, 2, ShardBy::kZOrderRange);
  IoStats trees_io;
  int misses = 0;
  for (int s = 0; s < 2; ++s) {
    const testing::ShardIndexBuild tried = testing::BuildShardIndexForTest(
        sharded->shard(s), prep->attr_order,
        rs.memory.Bytes(disk.page_size()));
    trees_io += tried.io;
    if (tried.fits) continue;
    ++misses;
    trees_io +=
        testing::BuildShardIndexForTest(sharded->shard(s), prep->attr_order)
            .io;
  }
  Expect(misses > 0, name + ": every shard fits; the 2-shard leg tests nothing");
  std::vector<ReverseSkylineResult> want2;
  for (size_t workers : {1u, 4u}) {
    EngineOptions opts;
    opts.num_workers = workers;
    opts.rs = rs;
    QueryEngine engine(*sharded, inst.space, Algorithm::kTRS, opts);
    const BatchResult build = Run(engine, inst);
    const BatchResult reuse = Run(engine, inst);
    const std::string run =
        name + " 2 shards workers " + std::to_string(workers);
    IoStats build_total = reuse.total_io;
    build_total += trees_io;
    Expect(build.total_io == build_total, run + ": build-batch total IO");
    Expect(engine.shard_index_bytes(0) > 0 && engine.shard_index_bytes(1) > 0,
           run + ": no verify tree");
    if (want2.empty()) want2 = build.results;
    for (size_t i = 0; i < inst.queries.size(); ++i) {
      const std::string q = run + " query " + std::to_string(i);
      Expect(build.results[i].rows == want[i].rows &&
                 reuse.results[i].rows == want[i].rows,
             q + ": rows");
      Expect(SameCounters(build.results[i].stats, want2[i].stats) &&
                 SameCounters(reuse.results[i].stats, want2[i].stats),
             q + ": counters");
      Expect(reuse.results[i].stats.phase2_batches > 0,
             q + ": a shard that misses the budget answered resident");
    }
  }
}

// ---- A failed build ----

// A sealed page corrupted on disk fails the clean-view build. The shard
// then runs TRS per query, which meets the same page and fails with a
// storage fault instead of an answer; the next batch tries the build
// again.
void CheckFailedBuild(const Instance& inst) {
  SimulatedDisk disk;
  PrepareOptions popts;
  popts.checksum_pages = true;
  auto prep = PrepareDataset(&disk, inst.data, Algorithm::kTRS, popts);
  NMRS_CHECK(prep.ok()) << prep.status();
  const FileId file = prep->stored.file();
  Page bad = *disk.PeekPage(file, 0);
  bad[bad.size() / 2] ^= 0x5a;
  NMRS_CHECK(disk.WritePage(file, 0, bad).ok());
  EngineOptions opts;
  opts.num_workers = 2;
  QueryEngine engine(*prep, inst.space, Algorithm::kTRS, opts);
  for (int b = 0; b < 2; ++b) {
    const std::string run = "failed build batch " + std::to_string(b);
    auto batch = engine.RunBatch(inst.queries);
    NMRS_CHECK(batch.ok()) << batch.status();
    Expect(engine.shard_index_bytes(0) == 0, run + ": index kept");
    Expect(!batch->quarantined.empty(), run + ": nothing quarantined");
    // total_io holds the queries' reads plus this batch's build attempt.
    uint64_t query_reads = 0;
    for (const ReverseSkylineResult& r : batch->results) {
      query_reads += r.stats.io.TotalReads();
    }
    Expect(batch->total_io.TotalReads() > query_reads,
           run + ": no build attempt");
    for (size_t i = 0; i < inst.queries.size(); ++i) {
      const QueryStats& st = batch->results[i].stats;
      Expect(batch->statuses[i].IsStorageFault(),
             run + " query " + std::to_string(i) + ": " +
                 batch->statuses[i].ToString());
      Expect(st.io.TotalReads() > 0,
             run + " query " + std::to_string(i) + ": no per-query read");
    }
  }
}

}  // namespace
}  // namespace nmrs

int main() {
  using nmrs::Instance;
  using nmrs::Rng;
  nmrs::RowTally rows;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    nmrs::CheckRowsTrial(seed * 7919, &rows);
  }
  nmrs::CheckCounters(11, {}, false);
  nmrs::CheckCounters(12, {2, 0}, false);
  nmrs::CheckCounters(13, {}, true);
  {
    Rng rng(21);
    nmrs::CheckDeterminism(nmrs::Categorical(rng, 2500, {6, 7, 8}),
                           "categorical");
    nmrs::CheckDeterminism(nmrs::Mixed(rng, 400, {4, 5}, 1), "mixed");
  }
  {
    Rng rng(31);
    nmrs::CheckNonFitting(nmrs::Categorical(rng, 3000, {8, 9, 10}),
                          "non-fitting categorical");
    nmrs::CheckNonFitting(nmrs::Mixed(rng, 300, {4, 5}, 1),
                          "non-fitting mixed");
  }
  {
    Rng rng(41);
    nmrs::CheckFailedBuild(nmrs::Categorical(rng, 2000, {6, 7, 8}));
  }
  std::printf(
      "resident TRS: %llu row cases (%llu non-empty, %llu answer rows, %llu "
      "sharing a leaf with another row); %d failures\n",
      static_cast<unsigned long long>(rows.cases),
      static_cast<unsigned long long>(rows.nonempty),
      static_cast<unsigned long long>(rows.rows),
      static_cast<unsigned long long>(rows.duplicated_rows),
      nmrs::g_failures);
  // The sweep must reach the cases it exists for, or a pass says little.
  const bool covered =
      rows.nonempty * 2 > rows.cases && rows.duplicated_rows > 0;
  if (!covered) std::fprintf(stderr, "coverage too thin\n");
  return nmrs::g_failures == 0 && covered ? 0 : 1;
}
