// Repository benchmark workload binary: runs ONE workload through the public
// nmrs::Database API in this process and prints its metrics as the last
// line of stdout, one JSON object (see perfbench/README.md).
//
//   perfbench_workload --workload <trs_sharded|serve_mutations|overlay_tenants>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--size full|tiny] [--commit <id>] [--trace-out <file>]
//
// The load is one closed-loop client (this thread) blocking on each
// request, served by kWorkers engine worker threads. Every input (rows,
// matrices, overlays, the mutation and query script) is generated from
// --seed before anything is timed; the amount of work is a fixed function
// of (--seed, --seconds), so two runs at one seed answer the same queries
// and execute the same writes. Correctness checks run outside the timed
// phase. --trace 1 adds spans around every call into the library and a
// set of single-layer diagnostics, and reports the per-layer metrics
// instead of the end-to-end ones.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "altree/al_tree.h"
#include "common/rng.h"
#include "core/dominance_kernel.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "data/stored_dataset.h"
#include "db/database.h"
#include "shard/shard_plan.h"
#include "sim/dissimilarity_matrix.h"
#include "sim/matrix_overlay.h"
#include "storage/wal.h"

#ifndef NMRS_BENCH_BUILD_TYPE
#define NMRS_BENCH_BUILD_TYPE "unknown"
#endif

namespace nmrs {
namespace perfbench {
namespace {

// One client thread plus two engine workers: three busy threads at most on
// a four-core host, so the client never competes with the workers it waits
// for.
constexpr size_t kWorkers = 2;
// A percentile is reported only with at least this many samples beyond it.
constexpr size_t kMinBeyond = 10;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

template <typename T>
T Must(StatusOr<T> v, const char* what) {
  if (!v.ok()) Die(std::string(what) + ": " + v.status().ToString());
  return std::move(*v);
}

// Host-speed probe: a fixed single-thread integer loop. Diagnostic only —
// recorded in the provenance, never a metric, never used to normalise.
double HostProbeMs() {
  static volatile uint64_t sink = 0x9e3779b97f4a7c15ull;
  const double t0 = NowMs();
  uint64_t x = sink;
  for (int i = 0; i < (1 << 26); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  return NowMs() - t0;
}

// ---------------------------------------------------------------------------
// Samples and percentiles.

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of a sample set, with the count of samples that
// lie strictly beyond the chosen rank.
struct Percentile {
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
};

Percentile Pct(std::vector<double> v, double p) {
  Percentile out;
  out.samples = v.size();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  out.value = v[rank - 1];
  out.beyond = v.size() - rank;
  return out;
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around each call into the
// library, kept in memory and written out when the run ends. Single
// threaded (only the client thread opens spans).

class Tracer {
 public:
  struct Record {
    const char* name;
    int parent;
    uint64_t request;
    double start_ms;
    double end_ms;
  };

  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  class Span {
   public:
    Span(Tracer* t, const char* name, uint64_t request = 0) : t_(t) {
      if (!t_->on_) return;
      index_ = static_cast<int>(t_->records_.size());
      t_->records_.push_back({name, t_->open_, request, NowMs(), 0});
      t_->open_ = index_;
    }
    ~Span() {
      if (index_ < 0) return;
      t_->records_[index_].end_ms = NowMs();
      t_->open_ = t_->records_[index_].parent;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* t_;
    int index_ = -1;
  };

  std::vector<double> Durations(const char* name) const {
    std::vector<double> out;
    for (const Record& r : records_) {
      if (std::strcmp(r.name, name) == 0) out.push_back(r.end_ms - r.start_ms);
    }
    return out;
  }

  // One JSON object per line: name, parent index, request, start, end and
  // self time (duration minus the part covered by direct children).
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::vector<double> child_ms(records_.size(), 0);
    for (const Record& r : records_) {
      if (r.parent >= 0) child_ms[r.parent] += r.end_ms - r.start_ms;
    }
    const double t0 = records_.empty() ? 0 : records_.front().start_ms;
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"request\":%llu,"
                   "\"start_ms\":%.6f,\"end_ms\":%.6f,\"self_ms\":%.6f}\n",
                   i, r.name, r.parent,
                   static_cast<unsigned long long>(r.request), r.start_ms - t0,
                   r.end_ms - t0, r.end_ms - r.start_ms - child_ms[i]);
    }
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  int open_ = -1;
  std::vector<Record> records_;
};

// ---------------------------------------------------------------------------
// Workload configuration. Sizes were calibrated on a 4-core x86 VM so that
// each run's timed phase lasts about --seconds; `requests_per_s` turns
// --seconds into a fixed request count.

enum class Kind { kTrsSharded, kServeMutations, kOverlayTenants };

struct Config {
  Kind kind = Kind::kTrsSharded;
  Algorithm algo = Algorithm::kTRS;
  uint64_t rows = 0;
  int shards = 1;
  // Page-cache capacity as a fraction of one shard's pages (0 = no cache).
  double cache_frac = 0;
  size_t batch_queries = 0;
  size_t users = 0;  // overlay users per request (0 = plain batches)
  // Overlay population: request i serves the (i mod tenants/users)-th
  // group of `users` consecutive tenants.
  size_t tenants = 0;
  double touch = 0;  // overlay touch fraction
  size_t epoch_writes = 0;  // mutations per epoch (0 = read-only workload)
  size_t epoch_batches = 0;
  size_t compact_every = 0;  // epochs between compactions
  double requests_per_s = 0;
  size_t min_requests = 0;
  int setup_reps = 1;
  int recover_reps = 0;
  size_t verify_samples = 0;  // answers checked against an independent path
};

Config ConfigFor(const std::string& workload, bool tiny) {
  Config c{};
  if (workload == "trs_sharded") {
    c = {.kind = Kind::kTrsSharded,
         .algo = Algorithm::kTRS,
         .rows = 100000,
         .shards = 2,
         .cache_frac = 0.25,
         .batch_queries = 8,
         .requests_per_s = 10.0,
         .min_requests = 100,
         .setup_reps = 15,
         .verify_samples = 8};
  } else if (workload == "serve_mutations") {
    c = {.kind = Kind::kServeMutations,
         .algo = Algorithm::kSRS,
         .rows = 75000,
         .shards = 1,
         .batch_queries = 8,
         .epoch_writes = 300,
         .epoch_batches = 1,
         .compact_every = 10,
         .requests_per_s = 10.0,
         .min_requests = 100,
         .setup_reps = 15,
         .recover_reps = 3,
         .verify_samples = 4};
  } else if (workload == "overlay_tenants") {
    // A population of 256 tenants, 32 per request: averaging the
    // overlays' sensitivity over 256 users instead of 32 keeps the
    // re-check work per answer within about 2% across seeds.
    c = {.kind = Kind::kOverlayTenants,
         .algo = Algorithm::kBRS,
         .rows = 6000,
         .shards = 1,
         .cache_frac = 1.0,
         .batch_queries = 2,
         .users = 32,
         .tenants = 256,
         .touch = 0.01,
         .requests_per_s = 10.0,
         .min_requests = 100,
         .setup_reps = 50,
         .verify_samples = 4};
  } else {
    Die("unknown workload '" + workload +
        "' (trs_sharded, serve_mutations, overlay_tenants)");
  }
  if (tiny) {
    c.rows = c.kind == Kind::kOverlayTenants ? 3000 : 6000;
    c.users = c.users > 0 ? 4 : 0;
    c.tenants = c.tenants > 0 ? 8 : 0;
    c.epoch_writes = c.epoch_writes > 0 ? 40 : 0;
    c.compact_every = c.compact_every > 0 ? 2 : 0;
    c.requests_per_s = 1;
    c.min_requests = 6;
    c.setup_reps = 2;
    c.recover_reps = c.recover_reps > 0 ? 1 : 0;
    c.verify_samples = 2;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Inputs, all derived from the seed before anything is timed.

struct Mutation {
  bool insert = false;
  uint64_t key = 0;  // key Insert must return, or key to delete
  std::vector<ValueId> values;
};

struct Inputs {
  std::vector<size_t> cards;
  Dataset base{Schema{}};
  SimilaritySpace space;
  size_t requests = 0;
  std::vector<std::vector<Object>> request_queries;
  std::vector<std::string> overlay_texts;
  std::vector<std::vector<Mutation>> epochs;  // serve_mutations only
  // Final logical content (keys in key order = snapshot row order) of the
  // mutation script, the in-memory mirror the recovered state is checked
  // against.
  std::vector<uint64_t> final_keys;
  Dataset final_rows{Schema{}};
  uint64_t mutations = 0;
  uint64_t wal_user_bytes = 0;
};

Inputs MakeInputs(const Config& cfg, uint64_t seed, double seconds) {
  Inputs in;
  Rng master(seed);
  Rng data_rng = master.Fork();
  Rng space_rng = master.Fork();
  Rng query_rng = master.Fork();
  Rng overlay_rng = master.Fork();
  Rng mutation_rng = master.Fork();

  in.cards.assign(4, 12);
  in.base = GenerateNormal(cfg.rows, in.cards, data_rng);
  for (size_t card : in.cards) {
    in.space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }

  in.requests = std::max<size_t>(
      cfg.min_requests,
      static_cast<size_t>(std::llround(cfg.requests_per_s * seconds)));
  if (cfg.epoch_batches > 0) {
    // Whole epochs only.
    in.requests = (in.requests + cfg.epoch_batches - 1) / cfg.epoch_batches *
                  cfg.epoch_batches;
  }
  in.request_queries.resize(in.requests);
  for (auto& qs : in.request_queries) {
    for (size_t i = 0; i < cfg.batch_queries; ++i) {
      qs.push_back(SampleUniformQuery(in.base, query_rng));
    }
  }

  for (size_t u = 0; u < cfg.tenants; ++u) {
    in.overlay_texts.push_back(
        MakeRandomOverlay(in.space, overlay_rng, cfg.touch).Serialize());
  }

  if (cfg.epoch_writes > 0) {
    // Live keys: base rows are keys 0..n-1, inserts take the next key in
    // order. Inserts and deletes in a 2:1 ratio; deletes pick a live key.
    const uint64_t n = in.base.num_rows();
    std::vector<uint64_t> live(n);
    for (uint64_t k = 0; k < n; ++k) live[k] = k;
    std::vector<std::vector<ValueId>> inserted;
    std::vector<bool> deleted(n, false);
    uint64_t next_key = n;
    const size_t num_epochs = in.requests / cfg.epoch_batches;
    in.epochs.resize(num_epochs);
    for (auto& epoch : in.epochs) {
      for (size_t w = 0; w < cfg.epoch_writes; ++w) {
        Mutation m;
        if (mutation_rng.Uniform(3) == 0) {
          const size_t pick = mutation_rng.Uniform(live.size());
          m.key = live[pick];
          live[pick] = live.back();
          live.pop_back();
          deleted[m.key] = true;
        } else {
          m.insert = true;
          m.key = next_key++;
          for (size_t card : in.cards) {
            m.values.push_back(static_cast<ValueId>(mutation_rng.Uniform(card)));
          }
          inserted.push_back(m.values);
          deleted.push_back(false);
          live.push_back(m.key);
        }
        WalRecord rec;
        rec.type = m.insert ? WalRecord::Type::kInsert : WalRecord::Type::kDelete;
        rec.key = m.key;
        rec.values.assign(m.values.begin(), m.values.end());
        in.wal_user_bytes += rec.EncodedBytes();
        ++in.mutations;
        epoch.push_back(std::move(m));
      }
    }
    in.final_rows = Dataset(in.base.schema());
    in.final_rows.Reserve(live.size());
    for (uint64_t k = 0; k < next_key; ++k) {
      if (deleted[k]) continue;
      in.final_keys.push_back(k);
      if (k < n) {
        const ValueId* v = in.base.RowValues(k);
        in.final_rows.AppendCategoricalRow(
            std::vector<ValueId>(v, v + in.cards.size()));
      } else {
        in.final_rows.AppendCategoricalRow(inserted[k - n]);
      }
    }
  }
  return in;
}

// ---------------------------------------------------------------------------
// Measurements of one run.

struct Run {
  // Operation accounting behind `attempted` / `failed`.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void Op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }

  // Timed phase: wall and process CPU accumulate only inside Timed(),
  // with the wall time also split by kind of call (a diagnostic).
  double timed_wall_ms = 0;
  double timed_cpu_ms = 0;
  std::map<std::string, double> timed_split_ms;
  uint64_t answers = 0;

  template <typename Fn>
  void Timed(const char* kind, Fn&& fn) {
    const double w0 = NowMs();
    const double c0 = ProcessCpuMs();
    fn();
    timed_cpu_ms += ProcessCpuMs() - c0;
    const double wall = NowMs() - w0;
    timed_wall_ms += wall;
    timed_split_ms[kind] += wall;
  }

  std::vector<double> setup_s;
  std::vector<double> batch_ms;
  std::vector<double> write_us;
  std::vector<double> freshness_ms;
  std::vector<double> recover_s;

  // Counters summed over every request of the timed phase.
  uint64_t queries = 0;
  uint64_t checks = 0;
  uint64_t pair_tests = 0;
  uint64_t phase1_survivors = 0;
  uint64_t phase1_batches = 0;
  uint64_t phase2_batches = 0;
  uint64_t failed_queries = 0;
  uint64_t queries_retried = 0;
  IoStats io;
  MessageStats net;
  uint64_t sensitive_rows = 0;
  uint64_t invariant_rows = 0;
  uint64_t recheck_scans = 0;
  uint64_t recheck_checks = 0;
  uint64_t snapshot_pages_written = 0;
  uint64_t snapshots_materialized = 0;
  uint64_t compact_pages_written = 0;
  uint64_t compactions = 0;
  uint64_t delta_at_snapshot = 0;
  uint64_t wal_page_writes = 0;
  uint64_t wal_user_bytes = 0;  // encoded size of the mutations' records
  DbStats db_stats;
  uint64_t recover_records = 0;

  // Single-layer diagnostics (filled in by the traced run).
  std::vector<double> core_query_ms;
  double naive_query_ms = 0;
  double altree_insert_us_per_row = 0;
  double partition_ms = 0;
  std::vector<double> prepare_ms;
  std::vector<double> overlay_build_ms;
  std::vector<double> open_ms;
  std::vector<double> overlay_extra_ms;
};

void AddQueryStats(Run* run, const ReverseSkylineResult& r) {
  ++run->queries;
  run->checks += r.stats.checks;
  run->pair_tests += r.stats.pair_tests;
  run->phase1_survivors += r.stats.phase1_survivors;
  run->phase1_batches += r.stats.phase1_batches;
  run->phase2_batches += r.stats.phase2_batches;
}

void AddBatch(Run* run, const DbBatchResult& b) {
  for (const auto& r : b.results()) AddQueryStats(run, r);
  run->io += b.total_io();
  run->failed_queries += b.num_failed();
  if (b.plain) run->queries_retried += b.plain->queries_retried;
  if (b.sharded) {
    run->queries_retried += b.sharded->tasks_retried;
    run->net += b.sharded->total_messages;
  }
  for (const Status& s : b.statuses()) run->Op(s.ok(), "query: " + s.ToString());
}

std::vector<uint64_t> Sorted(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// Page-for-page equality of two prepared datasets (bytes and row count).
bool SamePages(const PreparedDataset& a, const PreparedDataset& b) {
  const StoredDataset& x = a.stored;
  const StoredDataset& y = b.stored;
  if (x.num_rows() != y.num_rows() || x.num_pages() != y.num_pages()) {
    return false;
  }
  for (PageId p = 0; p < x.num_pages(); ++p) {
    const Page* px = x.disk()->PeekPage(x.file(), p);
    const Page* py = y.disk()->PeekPage(y.file(), p);
    if (px == nullptr || py == nullptr || px->size() != py->size() ||
        std::memcmp(px->data(), py->data(), px->size()) != 0) {
      return false;
    }
  }
  return true;
}

bool SameKeys(const Snapshot& snap, const std::vector<uint64_t>& keys) {
  if (snap.num_rows() != keys.size()) return false;
  for (RowId r = 0; r < keys.size(); ++r) {
    if (snap.KeyOf(r) != keys[r]) return false;
  }
  return true;
}

DatabaseOptions MakeOptions(const Config& cfg, const Inputs& in) {
  DatabaseOptions opts;
  opts.algo = cfg.algo;
  opts.engine.num_workers = kWorkers;
  opts.num_shards = cfg.shards;
  opts.shard_plan.shard_by = ShardBy::kZOrderRange;
  if (cfg.cache_frac > 0) {
    const uint64_t pages = RowCodec(in.base.schema(), kDefaultPageSize)
                               .PagesFor(in.base.num_rows());
    const uint64_t shard_pages =
        (pages + static_cast<uint64_t>(cfg.shards) - 1) /
        static_cast<uint64_t>(cfg.shards);
    // A fraction below 1 keeps the working set larger than the cache; a
    // whole-file cache gets two spare frames so nothing is ever evicted.
    opts.engine.cache_pages =
        cfg.cache_frac >= 1.0
            ? shard_pages + 2
            : std::max<uint64_t>(
                  1, static_cast<uint64_t>(cfg.cache_frac *
                                           static_cast<double>(shard_pages)));
  }
  return opts;
}

// One set-up through the public API: Database::Open plus parsing every
// tenant's overlay. Its wall time is one setup_s sample.
std::unique_ptr<Database> SetUp(const Inputs& in, const DatabaseOptions& opts,
                                Tracer* tracer, Run* run,
                                std::vector<MatrixOverlay>* overlays) {
  overlays->clear();
  const double t0 = NowMs();
  std::unique_ptr<Database> db;
  {
    Tracer::Span span(tracer, "db.Database::Open");
    db = Must(Database::Open(in.base, in.space, opts), "Database::Open");
  }
  const double t1 = NowMs();
  {
    Tracer::Span span(tracer, "sim.MatrixOverlay::Parse");
    for (const std::string& text : in.overlay_texts) {
      overlays->push_back(
          Must(MatrixOverlay::Parse(in.space, text), "MatrixOverlay::Parse"));
    }
  }
  const double t2 = NowMs();
  run->setup_s.push_back((t2 - t0) / 1e3);
  run->open_ms.push_back(t1 - t0);
  run->overlay_build_ms.push_back(t2 - t1);
  return db;
}

// The first set-up builds the database the run serves from. The other
// setup_reps - 1 samples are taken between requests, evenly over the run
// and outside the timed phase, and then discarded: spread over the whole
// run rather than back to back, a burst of host noise cannot move them
// all. setup_s is their median.
void MaybeSampleSetUp(const Config& cfg, const Inputs& in,
                      const DatabaseOptions& opts, size_t request,
                      Tracer* tracer, Run* run) {
  const size_t spacing =
      std::max<size_t>(1, in.requests / static_cast<size_t>(cfg.setup_reps));
  if ((request + 1) % spacing != 0 ||
      run->setup_s.size() >= static_cast<size_t>(cfg.setup_reps)) {
    return;
  }
  std::vector<MatrixOverlay> overlays;
  SetUp(in, opts, tracer, run, &overlays);
}

// Independent reference preparation of `data` on a fresh disk, with the
// attribute order the database pinned.
struct Reference {
  SimulatedDisk disk;
  std::optional<PreparedDataset> prepared;
};

std::unique_ptr<Reference> PrepareReference(const Dataset& data,
                                            const Config& cfg,
                                            const std::vector<AttrId>& order,
                                            Tracer* tracer, Run* run) {
  auto ref = std::make_unique<Reference>();
  PrepareOptions popts;
  popts.attr_order = order;
  const double t0 = NowMs();
  {
    Tracer::Span span(tracer, "order.PrepareDataset");
    ref->prepared = Must(PrepareDataset(&ref->disk, data, cfg.algo, popts),
                         "PrepareDataset");
  }
  run->prepare_ms.push_back(NowMs() - t0);
  return ref;
}

// Direct single-threaded RunReverseSkyline on the reference: the
// correctness oracle for the engine paths and the core.query_ms sample.
std::vector<RowId> DirectQuery(const Reference& ref,
                               const SimilaritySpace& space, const Object& q,
                               Algorithm algo, Tracer* tracer, Run* run) {
  const double t0 = NowMs();
  ReverseSkylineResult r;
  {
    Tracer::Span span(tracer, "core.RunReverseSkyline");
    r = Must(RunReverseSkyline(*ref.prepared, space, q, algo),
             "RunReverseSkyline");
  }
  run->core_query_ms.push_back(NowMs() - t0);
  return r.rows;
}

// Requests whose answers are checked: spread evenly over the script.
std::vector<size_t> VerifyIndices(const Config& cfg, size_t requests) {
  std::vector<size_t> idx;
  const size_t k = std::min(cfg.verify_samples, requests);
  for (size_t i = 0; i < k; ++i) idx.push_back(i * requests / k);
  return idx;
}

// Traced-run diagnostics shared by every workload: the brute-force Naive
// reference on one query, checked against the workload's algorithm over
// the first kNaiveRows rows (Naive is quadratic in the rows), and AL-Tree
// insertion over one phase-1-sized slice of the rows.
constexpr uint64_t kNaiveRows = 10000;

void LayerDiagnostics(const Config& cfg, const Reference& ref,
                      const Dataset& rows, const SimilaritySpace& space,
                      const Object& q, Tracer* tracer, Run* run) {
  Dataset prefix(rows.schema());
  for (RowId r = 0; r < std::min(kNaiveRows, rows.num_rows()); ++r) {
    const ValueId* v = rows.RowValues(r);
    prefix.AppendCategoricalRow(std::vector<ValueId>(v, v + rows.num_attributes()));
  }
  Run scratch;  // keeps the prefix's timings out of the run's samples
  std::unique_ptr<Reference> small =
      PrepareReference(prefix, cfg, ref.prepared->attr_order, tracer, &scratch);
  const std::vector<RowId> want =
      DirectQuery(*small, space, q, cfg.algo, tracer, &scratch);
  const double t0 = NowMs();
  ReverseSkylineResult naive;
  {
    Tracer::Span span(tracer, "core.Naive");
    naive = Must(RunReverseSkyline(*small->prepared, space, q,
                                   Algorithm::kNaive),
                 "RunReverseSkyline(naive)");
  }
  run->naive_query_ms = NowMs() - t0;
  run->Op(naive.rows == want, "naive reference differs from the algorithm");

  const RSOptions defaults;
  const uint64_t slice = std::min<uint64_t>(
      rows.num_rows(),
      defaults.memory.pages *
          RowCodec(rows.schema(), kDefaultPageSize).rows_per_page());
  std::vector<double> us_per_row;
  for (int rep = 0; rep < 5; ++rep) {
    ALTree tree(rows.schema(), ref.prepared->attr_order);
    const double t1 = NowMs();
    {
      Tracer::Span span(tracer, "altree.ALTree::Insert");
      for (RowId r = 0; r < slice; ++r) {
        tree.Insert(r, rows.RowValues(r), nullptr);
      }
    }
    us_per_row.push_back((NowMs() - t1) * 1e3 / static_cast<double>(slice));
  }
  run->altree_insert_us_per_row = Median(us_per_row);
}

// ---------------------------------------------------------------------------
// Workloads.

// trs_sharded / overlay_tenants: read-only request loops over the base
// generation through Database::RunBatch / RunOverlayBatch.
void RunReadOnly(const Config& cfg, const Inputs& in, Tracer* tracer,
                 Run* run) {
  const DatabaseOptions opts = MakeOptions(cfg, in);
  std::vector<MatrixOverlay> overlays;
  std::unique_ptr<Database> db =
      SetUp(in, opts, tracer, run, &overlays);
  // groups[g] = tenants [g * users, (g + 1) * users).
  std::vector<std::vector<const MatrixOverlay*>> groups;
  for (size_t t = 0; t < overlays.size(); ++t) {
    if (t % cfg.users == 0) groups.emplace_back();
    groups.back().push_back(&overlays[t]);
  }

  const std::vector<size_t> verify = VerifyIndices(cfg, in.requests);
  std::vector<DbBatchResult> kept_plain;
  std::vector<DbOverlayBatchResult> kept_overlay;
  std::vector<double> kept_overlay_ms;

  size_t next_verify = 0;
  for (size_t i = 0; i < in.requests; ++i) {
    const std::vector<Object>& qs = in.request_queries[i];
    const bool keep = next_verify < verify.size() && verify[next_verify] == i;
    double ms = 0;
    if (cfg.users == 0) {
      StatusOr<DbBatchResult> b = Status::Internal("not run");
      run->Timed("requests", [&] {
        Tracer::Span span(tracer, "db.Database::RunBatch", i);
        const double t0 = NowMs();
        b = db->RunBatch(qs);
        ms = NowMs() - t0;
      });
      run->Op(b.ok(), "RunBatch: " + b.status().ToString());
      if (!b.ok()) continue;
      run->batch_ms.push_back(ms);
      run->answers += qs.size();
      AddBatch(run, *b);
      if (keep) kept_plain.push_back(std::move(*b));
    } else {
      StatusOr<DbOverlayBatchResult> b = Status::Internal("not run");
      run->Timed("requests", [&] {
        Tracer::Span span(tracer, "exec.Database::RunOverlayBatch", i);
        const double t0 = NowMs();
        b = db->RunOverlayBatch(qs, groups[i % groups.size()]);
        ms = NowMs() - t0;
      });
      run->Op(b.ok(), "RunOverlayBatch: " + b.status().ToString());
      if (!b.ok()) continue;
      run->batch_ms.push_back(ms);
      run->answers += qs.size() * cfg.users;
      const OverlayBatchResult& ob = *b->plain;
      for (const auto& r : ob.base.results) AddQueryStats(run, r);
      run->io += ob.total_io;
      run->failed_queries += ob.base.num_failed();
      run->queries_retried += ob.base.queries_retried;
      run->sensitive_rows += ob.sensitive_rows;
      run->invariant_rows += ob.invariant_rows;
      run->recheck_scans += ob.recheck_scans;
      run->recheck_checks += ob.recheck_checks;
      for (const Status& s : ob.statuses) {
        run->Op(s.ok(), "overlay query: " + s.ToString());
      }
      if (keep) {
        kept_overlay.push_back(std::move(*b));
        kept_overlay_ms.push_back(ms);
      }
    }
    if (keep) ++next_verify;
    MaybeSampleSetUp(cfg, in, opts, i, tracer, run);
  }
  run->db_stats = db->stats();

  // Correctness, outside the timed phase: sampled answers against a
  // single-shard direct run over an independent preparation of the same
  // rows (overlay answers against the per-user BuildPatchedSpace rebuild).
  Snapshot snap = Must(db->Snapshot(), "Database::Snapshot");
  std::unique_ptr<Reference> ref = PrepareReference(
      in.base, cfg, snap.prepared().attr_order, tracer, run);
  for (size_t k = 0; k < verify.size(); ++k) {
    const std::vector<Object>& qs = in.request_queries[verify[k]];
    const size_t q = k % qs.size();
    if (cfg.users == 0) {
      if (k >= kept_plain.size()) break;
      const std::vector<RowId> want =
          DirectQuery(*ref, in.space, qs[q], cfg.algo, tracer, run);
      run->Op(kept_plain[k].results()[q].rows == want,
              "sampled answer differs from single-shard " +
                  std::string(AlgorithmName(cfg.algo)));
    } else {
      if (k >= kept_overlay.size()) break;
      const size_t u = (k * 7) % cfg.users;
      const size_t tenant = verify[k] % groups.size() * cfg.users + u;
      const SimilaritySpace patched = overlays[tenant].BuildPatchedSpace();
      const std::vector<RowId> want =
          DirectQuery(*ref, patched, qs[q], cfg.algo, tracer, run);
      run->Op(kept_overlay[k].results()[q][u].rows == want,
              "sampled overlay answer differs from the patched-space rebuild");
    }
  }
  if (!tracer->on()) return;

  LayerDiagnostics(cfg, *ref, in.base, in.space, in.request_queries[0][0],
                   tracer, run);
  if (cfg.shards > 1) {
    ShardPlanOptions plan = opts.shard_plan;
    plan.num_shards = cfg.shards;
    std::vector<double> ms;
    for (int rep = 0; rep < 3; ++rep) {
      auto scratch = PrepareReference(in.base, cfg, ref->prepared->attr_order,
                                      tracer, run);
      const double t0 = NowMs();
      {
        Tracer::Span span(tracer, "shard.ShardedDataset::Partition");
        Must(ShardedDataset::Partition(*scratch->prepared, plan),
             "ShardedDataset::Partition");
      }
      ms.push_back(NowMs() - t0);
    }
    run->partition_ms = Median(ms);
  }
  if (cfg.users > 0) {
    // Overlay cost over the plain batch of the same queries, both warm.
    for (size_t k = 0; k < kept_overlay.size(); ++k) {
      const std::vector<Object>& qs = in.request_queries[verify[k]];
      const double t0 = NowMs();
      {
        Tracer::Span span(tracer, "db.Database::RunBatch", verify[k]);
        auto b = db->RunBatch(qs);
        run->Op(b.ok() && b->ok(), "plain batch of overlay queries failed");
      }
      run->overlay_extra_ms.push_back(kept_overlay_ms[k] - (NowMs() - t0));
    }
  }
}

// serve_mutations: epochs of write burst -> Snapshot -> batches on the
// pinned snapshot, a Compact every compact_every epochs, then Recover.
void RunMutations(const Config& cfg, const Inputs& in, Tracer* tracer,
                  Run* run) {
  const DatabaseOptions opts = MakeOptions(cfg, in);
  std::vector<MatrixOverlay> no_overlays;
  std::unique_ptr<Database> db =
      SetUp(in, opts, tracer, run, &no_overlays);

  size_t request = 0;
  std::vector<size_t> last_epoch_requests;
  std::vector<DbBatchResult> last_epoch_results;
  uint64_t delta = 0;
  for (size_t e = 0; e < in.epochs.size(); ++e) {
    for (const Mutation& m : in.epochs[e]) {
      bool ok = false;
      double us = 0;
      run->Timed("writes", [&] {
        const double t0 = NowMs();
        if (m.insert) {
          Tracer::Span span(tracer, "db.Database::Insert", e);
          auto key = db->Insert(m.values);
          ok = key.ok() && *key == m.key;
        } else {
          Tracer::Span span(tracer, "db.Database::Delete", e);
          ok = db->Delete(m.key).ok();
        }
        us = (NowMs() - t0) * 1e3;
      });
      run->Op(ok, "write of key " + std::to_string(m.key));
      run->write_us.push_back(us);
      ++delta;
    }

    StatusOr<Snapshot> snap = Status::Internal("not run");
    double fresh_ms = 0;
    run->Timed("snapshots", [&] {
      Tracer::Span span(tracer, "db.Database::Snapshot", e);
      const double t0 = NowMs();
      snap = db->Snapshot();
      fresh_ms = NowMs() - t0;
    });
    run->Op(snap.ok() && snap->delta_version().total() == delta,
            "snapshot does not contain the write burst");
    if (!snap.ok()) continue;
    run->freshness_ms.push_back(fresh_ms);
    run->delta_at_snapshot += delta;
    run->snapshot_pages_written += snap->build_io().TotalWrites();
    if (snap->build_millis() > 0 || snap->build_io().TotalWrites() > 0) {
      ++run->snapshots_materialized;
    }

    const bool last_epoch = e + 1 == in.epochs.size();
    std::vector<size_t> epoch_requests;
    std::vector<DbBatchResult> epoch_results;
    for (size_t b = 0; b < cfg.epoch_batches; ++b, ++request) {
      const std::vector<Object>& qs = in.request_queries[request];
      StatusOr<DbBatchResult> res = Status::Internal("not run");
      double ms = 0;
      run->Timed("requests", [&] {
        Tracer::Span span(tracer, "db.Snapshot::RunBatch", request);
        const double t0 = NowMs();
        res = snap->RunBatch(qs);
        ms = NowMs() - t0;
      });
      run->Op(res.ok(), "RunBatch: " + res.status().ToString());
      if (!res.ok()) continue;
      run->batch_ms.push_back(ms);
      run->answers += qs.size();
      AddBatch(run, *res);
      epoch_requests.push_back(request);
      epoch_results.push_back(std::move(*res));
      MaybeSampleSetUp(cfg, in, opts, request, tracer, run);
    }

    if (last_epoch) {
      last_epoch_requests = std::move(epoch_requests);
      last_epoch_results = std::move(epoch_results);
    } else if (cfg.compact_every > 0 && (e + 1) % cfg.compact_every == 0) {
      const IoStats before = db->stats().snapshot_build_io;
      Status st;
      run->Timed("compactions", [&] {
        Tracer::Span span(tracer, "db.Database::Compact", e);
        st = db->Compact();
      });
      run->Op(st.ok(), "Compact: " + st.ToString());
      run->compact_pages_written +=
          (db->stats().snapshot_build_io - before).TotalWrites();
      ++run->compactions;
      delta = 0;
      // Correctness, untimed: the epoch's last batch answers the same
      // keys before and after the compaction.
      if (!epoch_results.empty()) {
        Snapshot after = Must(db->Snapshot(), "Database::Snapshot");
        const std::vector<Object>& qs =
            in.request_queries[epoch_requests.back()];
        auto res = after.RunBatch(qs);
        bool same = res.ok() && res->ok();
        for (size_t q = 0; same && q < qs.size(); ++q) {
          same = Sorted(res->keys[q]) == Sorted(epoch_results.back().keys[q]);
        }
        run->Op(same, "query keys changed across Compact");
      }
    }
  }
  run->db_stats = db->stats();
  run->wal_page_writes = db->wal_disk().stats().TotalWrites();

  // Recovery from the final WAL image, repeated; the last recovered state
  // is checked against the pre-crash snapshot and the in-memory mirror.
  Snapshot before = Must(db->Snapshot(), "Database::Snapshot");
  RecoveredDatabase recovered;
  for (int rep = 0; rep < cfg.recover_reps; ++rep) {
    recovered = RecoveredDatabase{};
    const double t0 = NowMs();
    {
      Tracer::Span span(tracer, "db.Database::Recover");
      auto r = Database::Recover(in.base, in.space, db->wal_disk(),
                                 db->wal_file(), opts);
      run->Op(r.ok(), "Recover: " + r.status().ToString());
      if (r.ok()) recovered = std::move(*r);
    }
    run->recover_s.push_back((NowMs() - t0) / 1e3);
  }
  run->recover_records = recovered.records_replayed;
  run->Op(recovered.db != nullptr && !recovered.torn_tail &&
              recovered.records_replayed == in.mutations,
          "Recover did not replay every acknowledged mutation");

  std::unique_ptr<Reference> mirror = PrepareReference(
      in.final_rows, cfg, before.prepared().attr_order, tracer, run);
  run->Op(SameKeys(before, in.final_keys) &&
              SamePages(before.prepared(), *mirror->prepared),
          "pre-crash snapshot differs from the in-memory mirror");
  if (recovered.db != nullptr) {
    Snapshot after = Must(recovered.db->Snapshot(), "Database::Snapshot");
    run->Op(SameKeys(after, in.final_keys) &&
                SamePages(after.prepared(), before.prepared()),
            "recovered snapshot differs from the pre-crash snapshot");
  }

  // Sampled answers of the final epoch against direct runs on the mirror.
  for (size_t k = 0; k < last_epoch_results.size(); ++k) {
    const std::vector<Object>& qs = in.request_queries[last_epoch_requests[k]];
    for (size_t q = 0; q < qs.size() && q < cfg.verify_samples; ++q) {
      const std::vector<RowId> want =
          DirectQuery(*mirror, in.space, qs[q], cfg.algo, tracer, run);
      std::vector<uint64_t> want_keys;
      for (RowId r : want) want_keys.push_back(in.final_keys[r]);
      run->Op(Sorted(last_epoch_results[k].keys[q]) == Sorted(want_keys),
              "final-epoch answer differs from the mirror");
    }
  }
  if (tracer->on()) {
    LayerDiagnostics(cfg, *mirror, in.final_rows, in.space,
                     in.request_queries[0][0], tracer, run);
  }
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(ms[i].name) + ": {\"value\": " + Num(ms[i].value) +
           ", \"unit\": " + JsonString(ms[i].unit) + "}";
  }
  return out + "}";
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Percentiles {
  Percentile batch_p50, batch_p90, write_p50, write_p90, fresh_p50;
};

Percentiles ComputePercentiles(const Run& run) {
  return {Pct(run.batch_ms, 0.5), Pct(run.batch_ms, 0.9),
          Pct(run.write_us, 0.5), Pct(run.write_us, 0.9),
          Pct(run.freshness_ms, 0.5)};
}

std::vector<Metric> EndToEnd(const Run& run, const Percentiles& p) {
  const double answers = static_cast<double>(run.answers);
  return {
      {"setup_s", Median(run.setup_s), "s"},
      {"answers_per_s", Ratio(answers, run.timed_wall_ms / 1e3), "1/s"},
      {"batch_p50_ms", p.batch_p50.value, "ms"},
      {"batch_p90_ms", p.batch_p90.value, "ms"},
      {"cpu_ms_per_answer", Ratio(run.timed_cpu_ms, answers), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

std::vector<Metric> PerLayer(const Config& cfg, const Run& run,
                             const Percentiles& p, const Tracer& tracer) {
  const double answers = static_cast<double>(run.answers);
  const double queries = static_cast<double>(run.queries);
  const double batches = static_cast<double>(run.batch_ms.size());
  const DbStats& s = run.db_stats;
  double batch_wall = 0;
  for (double ms : run.batch_ms) batch_wall += ms;
  return {
      {"db.open_ms", Median(run.open_ms), "ms"},
      {"db.snapshot_ms", Median(tracer.Durations("db.Database::Snapshot")),
       "ms"},
      {"db.snapshot_pages_written",
       Ratio(static_cast<double>(run.snapshot_pages_written),
             static_cast<double>(run.snapshots_materialized)),
       "pages/snapshot"},
      {"db.snapshots_built", static_cast<double>(s.snapshots_built), "count"},
      {"db.snapshots_reused", static_cast<double>(s.snapshots_reused),
       "count"},
      {"db.compact_ms", Median(tracer.Durations("db.Database::Compact")),
       "ms"},
      {"db.compact_pages_written",
       Ratio(static_cast<double>(run.compact_pages_written),
             static_cast<double>(run.compactions)),
       "pages/compaction"},
      {"db.recover_ms", Median(run.recover_s) * 1e3, "ms"},
      {"db.recover_records_replayed", static_cast<double>(run.recover_records),
       "count"},
      {"write_p50_us", p.write_p50.value, "us"},
      {"write_p90_us", p.write_p90.value, "us"},
      {"freshness_p50_ms", p.fresh_p50.value, "ms"},
      {"recover_s", Median(run.recover_s), "s"},
      {"storage.wal_page_writes_per_mutation",
       Ratio(static_cast<double>(run.wal_page_writes),
             static_cast<double>(s.inserts + s.deletes)),
       "pages/mutation"},
      {"storage.wal_bytes_written_per_user_byte",
       Ratio(static_cast<double>(run.wal_page_writes) * kDefaultPageSize,
             static_cast<double>(run.wal_user_bytes)),
       "B/B"},
      {"storage.pages_read_per_answer",
       Ratio(static_cast<double>(run.io.TotalReads()), answers),
       "pages/answer"},
      {"storage.rand_read_frac",
       Ratio(static_cast<double>(run.io.rand_reads),
             static_cast<double>(run.io.TotalReads())),
       "1"},
      {"storage.cache_hit_ratio", run.io.CacheHitRatio(), "1"},
      {"storage.cache_evictions_per_answer",
       Ratio(static_cast<double>(run.io.cache_evictions), answers),
       "count/answer"},
      {"data.delta_mutations_at_snapshot",
       Ratio(static_cast<double>(run.delta_at_snapshot),
             static_cast<double>(run.freshness_ms.size())),
       "count"},
      {"core.query_ms", Median(run.core_query_ms), "ms"},
      {"core.checks_per_answer", Ratio(static_cast<double>(run.checks), answers),
       "count/answer"},
      {"core.pair_tests_per_answer",
       Ratio(static_cast<double>(run.pair_tests), answers), "count/answer"},
      {"core.phase1_survivors_per_answer",
       Ratio(static_cast<double>(run.phase1_survivors), answers),
       "count/answer"},
      {"core.phase1_batches",
       Ratio(static_cast<double>(run.phase1_batches), queries), "count/query"},
      {"core.phase2_batches",
       Ratio(static_cast<double>(run.phase2_batches), queries), "count/query"},
      {"core.naive_query_ms", run.naive_query_ms, "ms"},
      {"altree.insert_us_per_row", run.altree_insert_us_per_row, "us"},
      {"exec.parallel_efficiency",
       Ratio(Median(run.core_query_ms) * queries,
             static_cast<double>(kWorkers) * batch_wall),
       "1"},
      {"exec.failed_queries", static_cast<double>(run.failed_queries),
       "count"},
      {"exec.queries_retried", static_cast<double>(run.queries_retried),
       "count"},
      {"exec.overlay_sensitive_frac",
       Ratio(static_cast<double>(run.sensitive_rows),
             static_cast<double>(run.sensitive_rows + run.invariant_rows)),
       "1"},
      {"exec.overlay_recheck_scans",
       Ratio(static_cast<double>(run.recheck_scans), cfg.users > 0 ? batches : 0),
       "count/request"},
      {"exec.overlay_recheck_checks_per_answer",
       Ratio(static_cast<double>(run.recheck_checks), answers),
       "count/answer"},
      {"exec.overlay_extra_ms", Median(run.overlay_extra_ms), "ms"},
      {"shard.partition_ms", run.partition_ms, "ms"},
      {"shard.net_messages_per_batch",
       Ratio(static_cast<double>(run.net.messages), batches), "count/batch"},
      {"shard.net_bytes_per_batch",
       Ratio(static_cast<double>(run.net.bytes), batches), "B/batch"},
      {"shard.net_rounds", Ratio(static_cast<double>(run.net.rounds), batches),
       "count/batch"},
      {"order.prepare_ms", Median(run.prepare_ms), "ms"},
      {"sim.overlay_build_ms", cfg.users > 0 ? Median(run.overlay_build_ms) : 0,
       "ms"},
  };
}

std::string PctJson(const Percentile& p) {
  return "{\"value\": " + Num(p.value) + ", \"samples\": " +
         std::to_string(p.samples) + ", \"beyond\": " +
         std::to_string(p.beyond) + "}";
}

std::string SplitJson(const Run& run) {
  std::string out = "{";
  for (const auto& [kind, ms] : run.timed_split_ms) {
    if (out.size() > 1) out += ", ";
    out += JsonString(kind) + ": " + Num(ms);
  }
  return out + "}";
}

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string commit = "unknown";
  std::string trace_out;
};

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) Die("flag " + a + " needs a value");
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      f.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      f.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') Die("bad --seed " + v);
    } else if (a == "--seconds") {
      f.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(f.seconds > 0) ||
          f.seconds > 3600) {
        Die("bad --seconds " + v);
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") Die("bad --trace " + v);
      f.trace = v == "1";
    } else if (a == "--size") {
      if (v != "full" && v != "tiny") Die("bad --size " + v);
      f.tiny = v == "tiny";
    } else if (a == "--commit") {
      f.commit = v;
    } else if (a == "--trace-out") {
      f.trace_out = v;
    } else {
      Die("unknown flag " + a);
    }
  }
  if (!have_workload) Die("--workload is required");
  return f;
}

int Main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  const Config cfg = ConfigFor(flags.workload, flags.tiny);
  Tracer tracer(flags.trace);
  Run run;

  const double probe_before = HostProbeMs();
  const Inputs in = MakeInputs(cfg, flags.seed, flags.seconds);
  run.wal_user_bytes = in.wal_user_bytes;
  const double t_start = NowMs();
  if (cfg.kind == Kind::kServeMutations) {
    RunMutations(cfg, in, &tracer, &run);
  } else {
    RunReadOnly(cfg, in, &tracer, &run);
  }
  const double run_s = (NowMs() - t_start) / 1e3;
  const double probe_after = HostProbeMs();

  const Percentiles p = ComputePercentiles(run);
  // Percentiles the workload reports must rest on enough samples; the
  // tiny smoke size is exempt (it only checks the output's shape).
  std::vector<const Percentile*> required = {&p.batch_p50, &p.batch_p90};
  if (cfg.epoch_writes > 0) {
    required.insert(required.end(), {&p.write_p50, &p.write_p90, &p.fresh_p50});
  }
  if (!flags.tiny) {
    for (const Percentile* r : required) {
      if (r->beyond < kMinBeyond) {
        Die("a percentile has only " + std::to_string(r->beyond) +
            " samples beyond it (need " + std::to_string(kMinBeyond) + ")");
      }
    }
  }

  for (const std::string& f : run.failures) {
    std::printf("FAILED %s\n", f.c_str());
  }
  char host[256] = {0};
  gethostname(host, sizeof(host) - 1);
  std::printf(
      "PROVENANCE {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"size\": %s, \"host\": %s, \"nproc\": %u, "
      "\"kernel_dispatch\": %s, \"use_kernels\": false, \"build_type\": %s, "
      "\"commit\": %s, \"rows\": %llu, \"requests\": %zu, \"workers\": %zu, "
      "\"host_probe_ms\": {\"before\": %s, \"after\": %s}, "
      "\"run_s\": %s, \"timed_wall_s\": %s, \"timed_split_ms\": %s, "
      "\"setup_samples\": %zu, "
      "\"percentiles\": {\"batch_p50_ms\": %s, \"batch_p90_ms\": %s, "
      "\"write_p50_us\": %s, \"write_p90_us\": %s, \"freshness_p50_ms\": %s}, "
      "\"failed_op_frac\": %s}\n",
      JsonString(flags.workload).c_str(),
      static_cast<unsigned long long>(flags.seed), Num(flags.seconds).c_str(),
      flags.trace ? 1 : 0, flags.tiny ? "\"tiny\"" : "\"full\"",
      JsonString(host).c_str(), std::thread::hardware_concurrency(),
      JsonString(KernelDispatchName(ActiveKernelDispatch())).c_str(),
      JsonString(NMRS_BENCH_BUILD_TYPE).c_str(),
      JsonString(flags.commit).c_str(),
      static_cast<unsigned long long>(cfg.rows), in.requests, kWorkers,
      Num(probe_before).c_str(), Num(probe_after).c_str(), Num(run_s).c_str(),
      Num(run.timed_wall_ms / 1e3).c_str(), SplitJson(run).c_str(),
      run.setup_s.size(),
      PctJson(p.batch_p50).c_str(),
      PctJson(p.batch_p90).c_str(), PctJson(p.write_p50).c_str(),
      PctJson(p.write_p90).c_str(), PctJson(p.fresh_p50).c_str(),
      Num(Ratio(static_cast<double>(run.failed),
                static_cast<double>(run.attempted)))
          .c_str());

  const std::vector<Metric> e2e = EndToEnd(run, p);
  std::vector<Metric> metrics = e2e;
  if (flags.trace) {
    // The traced run's end-to-end figures, for the tracing-overhead report.
    std::printf("TRACED_E2E %s\n", MetricsJson(e2e).c_str());
    metrics = PerLayer(cfg, run, p, tracer);
    if (!flags.trace_out.empty() && !tracer.Write(flags.trace_out)) {
      Die("cannot write trace to " + flags.trace_out);
    }
  }
  const bool correct = run.failed == 0 && run.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace nmrs

int main(int argc, char** argv) { return nmrs::perfbench::Main(argc, argv); }
