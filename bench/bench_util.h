#ifndef NMRS_BENCH_BENCH_UTIL_H_
#define NMRS_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "data/dataset.h"
#include "shard/message_stats.h"
#include "sim/similarity_space.h"
#include "storage/io_stats.h"

namespace nmrs {
namespace bench {

/// Shared CLI knobs. Every bench accepts:
///   --scale=<f>   fraction of the paper's dataset sizes (default per bench)
///   --seed=<n>    master RNG seed
///   --queries=<n> query objects averaged per data point
///   --quick       shrink everything for a smoke run
///   --tiles=<n>   tiles per dimension for T-SRS / T-TRS
struct Args {
  double scale = 0.05;
  uint64_t seed = 42;
  int queries = 2;
  bool quick = false;
  size_t tiles = 4;

  static Args Parse(int argc, char** argv, double default_scale);

  uint64_t Rows(uint64_t paper_rows) const {
    const double s = quick ? scale / 10.0 : scale;
    const auto rows = static_cast<uint64_t>(static_cast<double>(paper_rows) * s);
    return rows < 50 ? 50 : rows;
  }
};

/// Averaged per-algorithm measurements for one experimental point.
struct AlgoMetrics {
  double compute_ms = 0;
  double response_ms = 0;
  double seq_io = 0;
  double rand_io = 0;
  double checks = 0;
  double survivors = 0;
  double result_size = 0;
};

/// Prepares `data` for `algo` on a fresh 32 KiB-page disk and runs
/// `queries` uniform query objects (seeded), averaging the stats. Memory
/// budget is `mem_fraction` of the dataset's on-disk size.
AlgoMetrics RunPoint(const Dataset& data, const SimilaritySpace& space,
                     Algorithm algo, double mem_fraction, const Args& args,
                     const std::vector<AttrId>& selected = {});

/// Collects one flat JSON object per benchmark run and writes them as
///   {"benchmark": "<name>", "runs": [{...}, ...]}
/// — a machine-readable artifact alongside the printed tables (e.g.
/// BENCH_parallel.json). Values are kept in insertion order.
class JsonWriter {
 public:
  explicit JsonWriter(std::string benchmark_name);

  /// Starts a new run object; subsequent Field() calls attach to it.
  void BeginRun();
  void Field(const std::string& key, double value);
  void Field(const std::string& key, uint64_t value);
  void Field(const std::string& key, const std::string& value);

  /// Serializes to `path`, returning false (with a message on stderr) on
  /// IO failure.
  bool WriteFile(const std::string& path) const;

  /// The keys of run `i` in insertion order — what schema-pin tests and
  /// gate scripts introspect instead of re-parsing the JSON.
  std::vector<std::string> RunKeys(size_t i) const;
  size_t num_runs() const { return runs_.size(); }

 private:
  std::string name_;
  // Each run is a list of (key, pre-encoded JSON value) pairs.
  std::vector<std::vector<std::pair<std::string, std::string>>> runs_;
};

/// Emits the standard IO field block every IO-reporting bench shares: the
/// four raw read/write counters plus the derived total_seq_io /
/// total_rand_io, the buffer-pool counters (cache_hits / cache_misses /
/// cache_evictions / cache_hit_ratio), the fault counters
/// (transient_retries / checksum_failures / quarantined_pages) and the
/// replica failover counters (failovers / replica_reads_total). Every
/// IoStats counter is represented — a static_assert in the implementation
/// pins sizeof(IoStats), so growing IoStats without extending this emitter
/// fails the build instead of silently dropping the new counter (which is
/// exactly what happened to the fault counters once). Fields not exercised
/// by a run are zero, keeping one JSON schema across uncached, cached,
/// clean and chaos runs. Call between BeginRun() and the next BeginRun().
void EmitIoFields(JsonWriter* json, const IoStats& io);

/// Emits the overlay-telemetry block of a multi-tenant run — the
/// classification split (sensitive_rows / invariant_rows plus the derived
/// sensitive_fraction) and the re-check work (recheck_scans /
/// recheck_checks / recheck_pair_tests). The five counters mirror
/// OverlayBatchResult field for field; extending that struct means
/// extending this emitter and the schema-pin test together. Zero for
/// non-overlay runs, keeping one schema across plain and overlay benches.
void EmitOverlayFields(JsonWriter* json, uint64_t sensitive_rows,
                       uint64_t invariant_rows, uint64_t recheck_scans,
                       uint64_t recheck_checks, uint64_t recheck_pair_tests);

/// Emits the exchange-traffic block of a sharded run — net_messages /
/// net_bytes / net_rounds plus the modeled net_millis under `net` —
/// sizeof-pinned against MessageStats like EmitIoFields is against
/// IoStats. Zero for single-shard runs, keeping one schema across shard
/// counts.
void EmitMessageFields(JsonWriter* json, const MessageStats& messages,
                       const MessageCostModel& net = {});

/// Aligned-column table printer for the figure/table reproductions.
class Table {
 public:
  explicit Table(std::vector<std::string> header);
  void AddRow(std::vector<std::string> row);
  void Print() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

std::string Fmt(double v, int precision = 1);

/// What a SHAPE-CHECK compares. Counts, IO, survivors and result sets are
/// deterministic for a seed, so a kCount claim that reads VIOLATED fails
/// the bench (ShapeCheckExitCode). A kTiming claim compares wall times of a
/// few ms, which one run cannot tell from noise, so it only prints.
enum class Claim { kTiming, kCount };

/// Prints "SHAPE-CHECK <name>: OK|VIOLATED (<detail>)" — the qualitative
/// claim of the paper that this experiment is expected to reproduce.
void ShapeCheck(const std::string& name, bool ok, const std::string& detail,
                Claim claim = Claim::kTiming);

/// 1 once a kCount ShapeCheck of this process read VIOLATED, else 0: what
/// a paper bench's main returns.
int ShapeCheckExitCode();

/// Section banner.
void Banner(const std::string& title);

}  // namespace bench
}  // namespace nmrs

#endif  // NMRS_BENCH_BENCH_UTIL_H_
