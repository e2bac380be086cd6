// Storage-fault robustness benchmark (docs/ROBUSTNESS.md). Two workloads,
// one JSON artifact (BENCH_faults.json; runs carry a "workload" field):
//
// 1. "overhead" — the same SRS batch run three ways: the seed path (no
//    checksums, no injector), checksummed pages, and checksummed pages
//    with the fault injector armed but never firing (its only bad page
//    lies far past EOF, so every read still pays the oracle draw and the
//    FaultyDisk indirection). All three take the scalar path, so none
//    keeps a segment store (a faulted shard never gets one). Fault
//    handling is supposed to be free when nothing fails; the shape check
//    demands < 3% wall-clock overhead of the fully-armed configuration
//    over the seed path and bit-identical rows across all three. After
//    one untimed warm-up batch each, the three configurations run
//    interleaved rep by rep, so drift in the host's speed lands on all of
//    them alike; the check compares median walls, and min / median / max
//    are reported per configuration.
//
// 2. "retry-storm" — the checksummed batch under transient read faults at
//    p in {1e-4, 1e-3, 1e-2} with the default 3-attempt retry policy and
//    one clean-view query retry. Retries are charged as *modeled* backoff
//    latency (never slept), so the interesting output is how the modeled
//    makespan inflates with p while the answer stays exactly the clean
//    rows — the storm is absorbed, not returned to the caller.
//
// 3. "failover" — the checksummed batch against N in {1, 2, 3} storage
//    replicas where replica 0 permanently loses pages (data_loss_p = 1e-3
//    plus page 0 pinned bad, so every sweep sees at least one loss), the
//    others stay clean, and clean-view query retries are disabled: any
//    recovery is page-granular failover alone (docs/ROBUSTNESS.md). N = 1
//    is the damage baseline (queries fail); the shape check demands that
//    N >= 2 completes every query with rows identical to the fault-free
//    run and a nonzero failover count.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "data/generators.h"
#include "exec/query_engine.h"
#include "sim/dissimilarity_matrix.h"

namespace nmrs {
namespace bench {
namespace {

struct Workload {
  Dataset data;
  SimilaritySpace space;
  std::vector<Object> queries;
};

Workload MakeWorkload(const Args& args) {
  Rng rng(args.seed);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  const std::vector<size_t> cards = {8, 8, 8};
  Workload w{GenerateNormal(args.Rows(20000), cards, data_rng), {}, {}};
  for (size_t card : cards) {
    w.space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }
  const size_t num_queries = args.quick ? 8 : 32;
  for (size_t i = 0; i < num_queries; ++i) {
    w.queries.push_back(SampleUniformQuery(w.data, rng));
  }
  return w;
}

/// One configuration of the overhead workload: its own prepared copy of
/// the data, the engine options that arm (or not) the fault machinery, and
/// the wall clock of every timed rep.
struct OverheadConfig {
  const char* name;
  bool checksums;
  bool armed;
  std::unique_ptr<SimulatedDisk> disk{};
  std::optional<PreparedDataset> prepared{};
  EngineOptions opts{};
  std::vector<double> walls{};
  double modeled_makespan = 0;
  std::vector<std::vector<RowId>> rows{};
};

void PrepareOverheadConfig(const Workload& w, OverheadConfig* cfg) {
  cfg->disk = std::make_unique<SimulatedDisk>();
  PrepareOptions popts;
  popts.checksum_pages = cfg->checksums;
  auto prepared =
      PrepareDataset(cfg->disk.get(), w.data, Algorithm::kSRS, popts);
  NMRS_CHECK(prepared.ok()) << prepared.status();
  cfg->prepared.emplace(std::move(*prepared));
  const StoredDataset& stored = cfg->prepared->stored;

  cfg->opts.num_workers = 1;  // single worker: wall clock measures the hot path
  cfg->opts.rs.memory = MemoryBudget::FromFraction(0.1, stored.num_pages());
  // The scalar path on every side: the kernel path keeps a per-batch
  // segment store only on shards whose replicas inject no faults, so the
  // armed injector would lose it and the comparison would read the
  // store's gain instead of the fault machinery's cost.
  cfg->opts.rs.use_kernels = false;
  if (cfg->armed) {
    // Armed but inert: the only configured fault sits far past EOF, so the
    // oracle is consulted on every read yet never fires.
    cfg->opts.faults.seed = 7;
    cfg->opts.faults.bad_pages.insert(
        {stored.file(), static_cast<PageId>(stored.num_pages() + 1000000)});
  }
}

/// Runs the batch once on a fresh engine; `timed` records its wall clock,
/// modeled makespan and (first time) rows.
void RunOverheadRep(const Workload& w, OverheadConfig* cfg, bool timed) {
  QueryEngine engine(*cfg->prepared, w.space, Algorithm::kSRS, cfg->opts);
  auto batch = engine.RunBatch(w.queries);
  NMRS_CHECK(batch.ok()) << batch.status();
  NMRS_CHECK(batch->ok()) << batch->first_error();
  if (!timed) return;
  cfg->walls.push_back(batch->wall_millis);
  cfg->modeled_makespan = batch->ModeledMakespanMillis();
  if (cfg->rows.empty()) {
    for (const auto& r : batch->results) cfg->rows.push_back(r.rows);
  }
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool RunOverhead(const Workload& w, const Args& args, JsonWriter* json,
                 double* overhead_out) {
  const int reps = args.quick ? 5 : 9;
  OverheadConfig configs[] = {
      {.name = "seed-path", .checksums = false, .armed = false},
      {.name = "checksummed", .checksums = true, .armed = false},
      {.name = "checksummed+armed-injector", .checksums = true, .armed = true},
  };
  for (OverheadConfig& cfg : configs) {
    PrepareOverheadConfig(w, &cfg);
    RunOverheadRep(w, &cfg, /*timed=*/false);  // warm-up
  }
  for (int rep = 0; rep < reps; ++rep) {
    for (OverheadConfig& cfg : configs) RunOverheadRep(w, &cfg, true);
  }

  Table table({"config", "min_wall_ms", "median_wall_ms", "max_wall_ms",
               "modeled_ms", "median_overhead_vs_seed"});
  const double seed_median = Median(configs[0].walls);
  bool rows_identical = true;
  for (const OverheadConfig& cfg : configs) {
    rows_identical = rows_identical && cfg.rows == configs[0].rows;
    const double median = Median(cfg.walls);
    const double lo = *std::min_element(cfg.walls.begin(), cfg.walls.end());
    const double hi = *std::max_element(cfg.walls.begin(), cfg.walls.end());
    const double overhead =
        seed_median > 0 ? median / seed_median - 1.0 : 0.0;
    if (cfg.armed) *overhead_out = overhead;
    table.AddRow({cfg.name, Fmt(lo, 2), Fmt(median, 2), Fmt(hi, 2),
                  Fmt(cfg.modeled_makespan, 2),
                  Fmt(overhead * 100, 2) + "%"});

    json->BeginRun();
    json->Field("workload", std::string("overhead"));
    json->Field("config", std::string(cfg.name));
    json->Field("checksums", static_cast<uint64_t>(cfg.checksums));
    json->Field("injector_armed", static_cast<uint64_t>(cfg.armed));
    json->Field("num_rows", w.data.num_rows());
    json->Field("num_queries", static_cast<uint64_t>(w.queries.size()));
    json->Field("reps", static_cast<uint64_t>(reps));
    json->Field("min_wall_millis", lo);
    json->Field("median_wall_millis", median);
    json->Field("max_wall_millis", hi);
    json->Field("modeled_makespan_millis", cfg.modeled_makespan);
    json->Field("overhead_vs_seed", overhead);
  }
  table.Print();
  return rows_identical;
}

void RunRetryStorm(const Workload& w, JsonWriter* json) {
  SimulatedDisk disk;
  PrepareOptions popts;
  popts.checksum_pages = true;
  auto prepared = PrepareDataset(&disk, w.data, Algorithm::kSRS, popts);
  NMRS_CHECK(prepared.ok()) << prepared.status();

  EngineOptions base;
  // One worker: the modeled makespan is then the deterministic sum of
  // per-query response times, so "inflation" below measures backoff, not
  // which worker happened to steal which query.
  base.num_workers = 1;
  base.rs.memory =
      MemoryBudget::FromFraction(0.1, prepared->stored.num_pages());
  base.max_query_retries = 1;  // clean-view replica read on exhaustion

  // Clean reference for row identity and makespan inflation.
  BatchResult clean;
  {
    auto batch =
        QueryEngine(*prepared, w.space, Algorithm::kSRS, base).RunBatch(
            w.queries);
    NMRS_CHECK(batch.ok()) << batch.status();
    NMRS_CHECK(batch->ok()) << batch->first_error();
    clean = std::move(*batch);
  }
  const double clean_makespan = clean.ModeledMakespanMillis();

  Table table({"transient_p", "retries", "backoff_ms", "recovered",
               "failed", "modeled_ms", "inflation"});
  const double storms[] = {1e-4, 1e-3, 1e-2};
  for (double p : storms) {
    EngineOptions opts = base;
    opts.faults.seed = 1315;
    opts.faults.transient_read_p = p;
    auto batch =
        QueryEngine(*prepared, w.space, Algorithm::kSRS, opts).RunBatch(
            w.queries);
    NMRS_CHECK(batch.ok()) << batch.status();

    double backoff_ms = 0;
    bool rows_match = true;
    for (size_t i = 0; i < w.queries.size(); ++i) {
      backoff_ms += batch->results[i].stats.modeled_backoff_millis;
      if (batch->statuses[i].ok() &&
          batch->results[i].rows != clean.results[i].rows) {
        rows_match = false;
      }
    }
    NMRS_CHECK(rows_match) << "storm p=" << p << " changed result rows";

    const double makespan = batch->ModeledMakespanMillis();
    const double inflation =
        clean_makespan > 0 ? makespan / clean_makespan - 1.0 : 0.0;
    table.AddRow({Fmt(p, 4), std::to_string(batch->total_io.transient_retries),
                  Fmt(backoff_ms, 2), std::to_string(batch->queries_retried),
                  std::to_string(batch->num_failed()), Fmt(makespan, 2),
                  Fmt(inflation * 100, 1) + "%"});

    json->BeginRun();
    json->Field("workload", std::string("retry-storm"));
    json->Field("transient_p", p);
    json->Field("num_rows", w.data.num_rows());
    json->Field("num_queries", static_cast<uint64_t>(w.queries.size()));
    json->Field("queries_recovered", batch->queries_retried);
    json->Field("queries_failed", static_cast<uint64_t>(batch->num_failed()));
    json->Field("modeled_backoff_millis", backoff_ms);
    json->Field("modeled_makespan_millis", makespan);
    json->Field("makespan_inflation_vs_clean", inflation);
    json->Field("clean_makespan_millis", clean_makespan);
    EmitIoFields(json, batch->total_io);
  }
  table.Print();
}

void RunFailover(const Workload& w, JsonWriter* json, bool* recovered_out) {
  SimulatedDisk disk;
  PrepareOptions popts;
  popts.checksum_pages = true;
  auto prepared = PrepareDataset(&disk, w.data, Algorithm::kSRS, popts);
  NMRS_CHECK(prepared.ok()) << prepared.status();

  EngineOptions base;
  base.num_workers = 4;
  base.rs.memory =
      MemoryBudget::FromFraction(0.1, prepared->stored.num_pages());
  base.max_query_retries = 0;  // recovery must come from failover alone

  // Fault-free reference rows.
  BatchResult clean;
  {
    auto batch =
        QueryEngine(*prepared, w.space, Algorithm::kSRS, base).RunBatch(
            w.queries);
    NMRS_CHECK(batch.ok()) << batch.status();
    NMRS_CHECK(batch->ok()) << batch->first_error();
    clean = std::move(*batch);
  }

  FaultConfig lossy;
  lossy.seed = 4242;
  lossy.data_loss_p = 1e-3;
  // Page 0 pinned bad: the probabilistic draw may select zero pages on a
  // small --quick dataset, and the shape check needs a guaranteed loss.
  lossy.bad_pages.insert({prepared->stored.file(), 0});

  Table table({"replicas", "failed", "failovers", "replica_reads",
               "modeled_ms", "rows_vs_clean"});
  *recovered_out = true;
  for (int n : {1, 2, 3}) {
    EngineOptions opts = base;
    opts.rs.resilience.replicas = n;
    if (n == 1) {
      opts.faults = lossy;
    } else {
      opts.replica_faults.assign(static_cast<size_t>(n), FaultConfig{});
      opts.replica_faults[0] = lossy;
    }
    auto batch =
        QueryEngine(*prepared, w.space, Algorithm::kSRS, opts).RunBatch(
            w.queries);
    NMRS_CHECK(batch.ok()) << batch.status();

    bool rows_match = true;
    for (size_t i = 0; i < w.queries.size(); ++i) {
      if (batch->statuses[i].ok() &&
          batch->results[i].rows != clean.results[i].rows) {
        rows_match = false;
      }
    }
    if (n >= 2 &&
        (!batch->ok() || batch->total_io.failovers == 0 || !rows_match)) {
      *recovered_out = false;
    }

    table.AddRow({std::to_string(n), std::to_string(batch->num_failed()),
                  std::to_string(batch->total_io.failovers),
                  std::to_string(batch->total_io.ReplicaReadsTotal()),
                  Fmt(batch->ModeledMakespanMillis(), 2),
                  rows_match ? "identical" : "DIVERGED"});

    json->BeginRun();
    json->Field("workload", std::string("failover"));
    json->Field("replicas", static_cast<uint64_t>(n));
    json->Field("data_loss_p", lossy.data_loss_p);
    json->Field("num_rows", w.data.num_rows());
    json->Field("num_queries", static_cast<uint64_t>(w.queries.size()));
    json->Field("queries_failed",
                static_cast<uint64_t>(batch->num_failed()));
    json->Field("rows_identical_to_clean",
                static_cast<uint64_t>(rows_match));
    json->Field("modeled_makespan_millis", batch->ModeledMakespanMillis());
    EmitIoFields(json, batch->total_io);
  }
  table.Print();
}

void Run(int argc, char** argv) {
  Args args = Args::Parse(argc, argv, 1.0);
  Banner("Fault-handling overhead when no faults fire");
  Workload w = MakeWorkload(args);
  std::printf("dataset: %llu rows, batch of %zu SRS queries\n",
              static_cast<unsigned long long>(w.data.num_rows()),
              w.queries.size());

  JsonWriter json("faults");
  double armed_overhead = 0;
  const bool rows_identical = RunOverhead(w, args, &json, &armed_overhead);

  Banner("Retry storms: transient faults absorbed as modeled backoff");
  RunRetryStorm(w, &json);

  Banner("Replica failover: one lossy replica, recovery page by page");
  bool failover_recovered = true;
  RunFailover(w, &json, &failover_recovered);

  ShapeCheck("fault-machinery-rows-identical", rows_identical,
             "rows identical across seed path, checksummed pages, and "
             "armed-but-inert injector");
  ShapeCheck("no-fault-overhead-under-3pct", armed_overhead < 0.03,
             "checksums + armed injector cost " +
                 Fmt(armed_overhead * 100, 2) +
                 "% median wall vs the seed path (need < 3%)");
  ShapeCheck("failover-recovers-with-2-replicas", failover_recovered,
             "with >= 2 replicas and one lossy, every query completes with "
             "the fault-free rows and failovers > 0");

  const char* out = "BENCH_faults.json";
  if (json.WriteFile(out)) std::printf("wrote %s\n", out);
}

}  // namespace
}  // namespace bench
}  // namespace nmrs

int main(int argc, char** argv) {
  nmrs::bench::Run(argc, argv);
  return 0;
}
