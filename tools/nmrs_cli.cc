// nmrs command-line driver: generate synthetic datasets, run reverse
// skyline queries over CSV data with CSV similarity matrices, and compare
// algorithms — without writing C++.
//
//   nmrs_cli generate --rows=N --cards=5,50,7 [--dist=normal|uniform|zipf]
//            --out=data.csv [--matrices=prefix] [--seed=S]
//       Generates a dataset (and one random dissimilarity matrix CSV per
//       attribute as <prefix><attr>.csv when --matrices is given).
//
//   nmrs_cli query --data=data.csv --matrices=prefix --query=1,2,3
//            [--algo=trs|srs|brs|naive|tsrs|ttrs] [--mem=0.1]
//            [--attrs=0,2] [--scalar] [--promote-rows=N] [--workers=W]
//            [--shards=N] [--shard-by=zorder|hash]
//            [common fault flags]
//       Runs a reverse-skyline query and prints the result rows + stats.
//       Queries run on the block dominance kernels (docs/KERNELS.md) by
//       default; the output names the lane evaluators runtime dispatch
//       picked (avx2/scalar) plus the adaptive-dispatch telemetry
//       (candidates promoted to block evaluation, rows evaluated by the
//       scalar probe vs. block windows). --scalar runs the seed scalar
//       loops instead (the paper's code path); --promote-rows=N sets how
//       many rows a candidate must survive before promotion (0 = promote
//       immediately). The result rows are identical either way. The
//       common fault flags (see batch) work here too: with faults or
//       --replicas=N > 1 the query runs against replica 0's faulty view
//       with the remaining replicas attached for page-granular failover,
//       exactly as the batch engine wires each query.
//
//   nmrs_cli compare --data=data.csv --matrices=prefix --query=1,2,3
//       Runs BRS, SRS and TRS on the same query and prints a comparison.
//
//   nmrs_cli skyline --data=data.csv --matrices=prefix --query=1,2,3
//       Prints the dynamic skyline of the database w.r.t. the reference
//       object (BNL; the skyline the reverse skyline is defined through).
//
//   nmrs_cli influence --data=data.csv --matrices=prefix --queries=K
//            [--seed=S]
//       Samples K query objects, ranks them by |RS(Q)| and prints the
//       concentration diagnostics (top-3 share, Gini).
//
//   nmrs_cli batch --data=data.csv --matrices=prefix --queries=K
//            [--workers=W] [--threads=T] [--algo=trs|srs|brs] [--mem=0.1]
//            [--cache-pages=N | --cache-pct=P] [--scalar]
//            [--promote-rows=N] [--seed=S]
//            [--checksum] [--transient-p=P] [--corrupt-p=P]
//            [--data-loss-p=P] [--bad-pages=f:p,f:p,...] [--fault-seed=S]
//            [--retries=N] [--max-query-retries=N] [--fail-fast]
//            [--replicas=N] [--replica-seed-base=S]
//            [--bad-replicas=r:loss_p,...]
//            [--shards=N] [--shard-by=zorder|hash]
//       Samples K query objects and runs them as one batch on the parallel
//       query engine (W pool workers, each query optionally using T
//       intra-query threads), printing per-query results and the modeled
//       batch throughput. --cache-pages / --cache-pct attach a shared
//       buffer-pool page cache of N pages (or P% of the dataset's pages)
//       to the engine and print its CacheStats summary (docs/CACHING.md).
//       The fault flags (docs/ROBUSTNESS.md) inject deterministic storage
//       faults: --transient-p / --corrupt-p / --data-loss-p / --bad-pages
//       configure the FaultConfig (seeded by --fault-seed), --checksum
//       seals dataset pages with CRC-32C and verifies them on read,
//       --retries sets the per-page transient retry budget,
//       --max-query-retries re-runs failed queries on a clean view, and
//       --fail-fast restores the old first-error batch semantics.
//       --replicas=N models N storage replicas with independent fault
//       streams (ResiliencePolicy, seed base --replica-seed-base) and
//       fails reads over page by page; --bad-replicas=r:loss_p restricts
//       the faults to the listed replicas (replica r gets the shared
//       FaultConfig with data_loss_p forced to loss_p, everyone else runs
//       clean). Failed queries are reported individually; the exit code
//       is non-zero iff some query failed.
//
//       --shards=N (query and batch modes) partitions the prepared dataset
//       into N shards (--shard-by=zorder Z-order ranges, the default, or
//       --shard-by=hash); the executor then runs the cross-shard pruner
//       exchange (docs/SHARDING.md) — result rows are bit-identical for
//       every N. With N > 1 the per-query output adds the per-shard
//       candidate counts and the exchange's message/byte/round ledger, the
//       batch summary adds the total MessageStats and the modeled network
//       cost, and the cache line is printed once per shard.
//
//       Overlay flags (docs/OVERLAYS.md): --overlay-users=K answers every
//       batch query for K synthetic per-user preference overlays (sparse
//       random deltas over the base matrices, each touching
//       --overlay-touch-pct=P percent of the off-diagonal entries, seeded
//       by --overlay-seed=S) through the incremental overlay executor —
//       one base run plus re-pruning of the overlay-sensitive rows, rows
//       bit-identical to rebuilding each user's patched space.
//       --overlay-file=path loads one overlay from a serialized delta file
//       ("attr from to d" lines) as the first user; in query mode the same
//       flag evaluates the single query under that user's overlay.
//
//   nmrs_cli serve --data=data.csv --matrices=prefix --script=workload.txt
//            [--algo=...] [--workers=W] [--shards=N] [--shard-by=...]
//            [--mem=0.1] [--threads=T] [--scalar] [--checksum]
//            [--cache-pages=N] [--max-delta=N] [--seed=S]
//       Online serving (docs/MUTABILITY.md): opens the dataset as a
//       mutable nmrs::Database and applies the scripted workload of
//       interleaved insert / delete / query / batch / compact / snapshot /
//       stats lines (grammar at CmdServe). Every query runs over an
//       epoch-pinned snapshot that is bit-identical to re-preparing the
//       mutated dataset from scratch; --max-delta caps the delta segment
//       (mutations then fail with the back-pressure status until a
//       `compact` line runs).
//
//       `query` and `batch` also route through the Database front door
//       (over a read-only generation-0 snapshot); their flags and output
//       are unchanged from the historical direct-engine wiring.
//
//   Every command rejects a flag it does not read (or a bare argument),
//   naming it, instead of running with the default.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "nmrs.h"
#include "storage/replica_set.h"

namespace nmrs {
namespace {

using Flags = std::map<std::string, std::string>;
using FlagNames = std::vector<std::string>;

// Parses argv[2..] as --key or --key=value flags. `known` lists the flags
// the command reads, in groups; the first argument that is not one of
// them fails with InvalidArgument naming it, so a misspelt flag cannot
// run silently with its default.
StatusOr<Flags> ParseFlags(int argc, char** argv,
                           const std::vector<FlagNames>& known) {
  Flags flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected argument '" + arg + "'");
    }
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(2, eq == std::string::npos
                                              ? std::string::npos
                                              : eq - 2);
    bool ok = false;
    for (const FlagNames& group : known) {
      ok = ok || std::find(group.begin(), group.end(), key) != group.end();
    }
    if (!ok) {
      return Status::InvalidArgument("unknown flag --" + key + " for '" +
                                     argv[1] + "'");
    }
    flags[key] = eq == std::string::npos ? "1" : arg.substr(eq + 1);
  }
  return flags;
}

std::string FlagOr(const Flags& flags, const std::string& key,
                   const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

// ParseDigits (common/string_util.h) of flag `key`, or `fallback` when the
// flag is absent.
StatusOr<uint64_t> ParseCount(const Flags& flags, const std::string& key,
                              uint64_t fallback) {
  auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  return ParseDigits("--" + key, it->second);
}

// ParseCount restricted to [lo, hi], for flags stored as int.
StatusOr<int> ParseIntFlag(const Flags& flags, const std::string& key,
                           int fallback, int lo, int hi) {
  NMRS_ASSIGN_OR_RETURN(const uint64_t v,
                        ParseCount(flags, key, static_cast<uint64_t>(fallback)));
  if (v < static_cast<uint64_t>(lo) || v > static_cast<uint64_t>(hi)) {
    return Status::InvalidArgument("--" + key + " must be in [" +
                                   std::to_string(lo) + ", " +
                                   std::to_string(hi) + "], got " +
                                   std::to_string(v));
  }
  return static_cast<int>(v);
}

// ParseDigits of every non-empty token of flag `key`'s "a,b,..." list.
StatusOr<std::vector<uint64_t>> ParseUintList(const Flags& flags,
                                              const std::string& key,
                                              const std::string& fallback) {
  std::vector<uint64_t> out;
  for (const std::string& tok : StrSplit(FlagOr(flags, key, fallback), ',')) {
    if (tok.empty()) continue;
    NMRS_ASSIGN_OR_RETURN(const uint64_t v, ParseDigits("--" + key, tok));
    out.push_back(v);
  }
  return out;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

StatusOr<SimilaritySpace> LoadSpace(const Schema& schema,
                                    const std::string& prefix) {
  SimilaritySpace space;
  for (AttrId a = 0; a < schema.num_attributes(); ++a) {
    if (schema.attribute(a).is_numeric) {
      space.AddNumeric(NumericDissimilarity());
      continue;
    }
    const std::string path = prefix + std::to_string(a) + ".csv";
    NMRS_ASSIGN_OR_RETURN(DissimilarityMatrix m, ReadMatrixCsvFile(path));
    if (m.cardinality() != schema.attribute(a).cardinality) {
      return Status::InvalidArgument(
          path + ": cardinality " + std::to_string(m.cardinality()) +
          " does not match attribute's " +
          std::to_string(schema.attribute(a).cardinality));
    }
    space.AddCategorical(std::move(m));
  }
  return space;
}

// Reads a serialized MatrixOverlay ("attr from to d" lines, '#' comments)
// and validates every entry against `base` (docs/OVERLAYS.md).
StatusOr<MatrixOverlay> LoadOverlayFile(const SimilaritySpace& base,
                                        const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  auto overlay = MatrixOverlay::Parse(base, text.str());
  if (!overlay.ok()) {
    return Status::InvalidArgument(path + ": " +
                                   overlay.status().ToString());
  }
  return overlay;
}

// Parses a "v1,v2,..." row literal against `schema` (numeric attributes
// take doubles, categorical ones in-domain value ids). Shared by query
// flags and the serve script's insert/query lines.
Status ParseRowSpec(const Schema& schema, const std::string& csv,
                    std::vector<ValueId>* values,
                    std::vector<double>* numerics) {
  const auto tokens = StrSplit(csv, ',');
  if (tokens.size() != schema.num_attributes()) {
    return Status::InvalidArgument(
        "row needs " + std::to_string(schema.num_attributes()) +
        " comma-separated values, got '" + csv + "'");
  }
  values->assign(schema.num_attributes(), 0);
  numerics->assign(schema.num_attributes(), 0.0);
  for (AttrId a = 0; a < schema.num_attributes(); ++a) {
    if (schema.attribute(a).is_numeric) {
      NMRS_ASSIGN_OR_RETURN((*numerics)[a], ParseDouble("value", tokens[a]));
    } else {
      NMRS_ASSIGN_OR_RETURN(const uint64_t v, ParseDigits("value", tokens[a]));
      if (v >= schema.attribute(a).cardinality) {
        return Status::InvalidArgument("value " + tokens[a] +
                                       " out of domain for attribute " +
                                       std::to_string(a));
      }
      (*values)[a] = static_cast<ValueId>(v);
    }
  }
  return Status::OK();
}

StatusOr<Object> ParseQuery(const Dataset& data, const std::string& csv) {
  std::vector<ValueId> values;
  std::vector<double> numerics;
  NMRS_RETURN_IF_ERROR(ParseRowSpec(data.schema(), csv, &values, &numerics));
  return data.MakeObject(values, numerics);
}

StatusOr<Algorithm> ParseAlgorithm(const std::string& name) {
  if (name == "naive") return Algorithm::kNaive;
  if (name == "brs") return Algorithm::kBRS;
  if (name == "srs") return Algorithm::kSRS;
  if (name == "trs") return Algorithm::kTRS;
  if (name == "tsrs") return Algorithm::kTileSRS;
  if (name == "ttrs") return Algorithm::kTileTRS;
  return Status::InvalidArgument("unknown algorithm '" + name + "'");
}

// Flags shared by every query-running command (query, compare, influence,
// batch): --mem, --attrs, --threads, --scalar, --checksum, --retries,
// --replicas, --replica-seed-base. One parse path so the commands cannot
// drift apart again (batch had grown resilience flags `query` could not
// spell).
Status ParseCommonOptions(const Flags& flags, const Schema& schema,
                          uint64_t dataset_pages, RSOptions* rs) {
  const double mem_frac =
      std::strtod(FlagOr(flags, "mem", "0.1").c_str(), nullptr);
  if (!(mem_frac > 0)) {
    return Status::InvalidArgument(
        "--mem must be a positive fraction of the dataset size, got '" +
        FlagOr(flags, "mem", "0.1") + "'");
  }
  rs->memory = MemoryBudget::FromFraction(mem_frac, dataset_pages);
  NMRS_ASSIGN_OR_RETURN(const std::vector<uint64_t> attrs,
                        ParseUintList(flags, "attrs", ""));
  for (uint64_t a : attrs) {
    if (a >= schema.num_attributes()) {
      return Status::InvalidArgument(
          "--attrs index " + std::to_string(a) +
          " out of range: the dataset has " +
          std::to_string(schema.num_attributes()) + " attributes");
    }
    rs->selected_attrs.push_back(static_cast<AttrId>(a));
  }
  NMRS_ASSIGN_OR_RETURN(
      rs->num_threads,
      ParseIntFlag(flags, "threads", 1, 1, std::numeric_limits<int>::max()));
  rs->use_kernels = flags.count("scalar") == 0;
  if (flags.count("promote-rows") != 0) {
    NMRS_ASSIGN_OR_RETURN(const uint64_t promote,
                          ParseCount(flags, "promote-rows", 16));
    if (promote > std::numeric_limits<uint32_t>::max()) {
      return Status::InvalidArgument("--promote-rows is out of range");
    }
    rs->kernel_promote_rows = static_cast<uint32_t>(promote);
  }
  rs->resilience.checksum_pages = flags.count("checksum") != 0;
  if (flags.count("retries") != 0) {
    NMRS_ASSIGN_OR_RETURN(rs->resilience.retry.max_attempts,
                          ParseIntFlag(flags, "retries", 3, 1,
                                       std::numeric_limits<int>::max()));
  }
  NMRS_ASSIGN_OR_RETURN(
      rs->resilience.replicas,
      ParseIntFlag(flags, "replicas", 1, 1,
                   static_cast<int>(IoStats::kMaxReplicas)));
  if (flags.count("replica-seed-base") != 0) {
    NMRS_ASSIGN_OR_RETURN(rs->resilience.replica_fault_seed_base,
                          ParseCount(flags, "replica-seed-base", 0));
  }
  return Status::OK();
}

void PrintKernelBanner(const RSOptions& rs) {
  if (!rs.use_kernels) {
    std::printf("dominance kernels off (--scalar): seed scalar loops\n");
    return;
  }
  std::printf("dominance kernels (dispatch: %s, promote after %u rows)\n",
              KernelDispatchName(ActiveKernelDispatch()),
              rs.kernel_promote_rows);
}

// Fault-injection flags shared by query and batch (docs/ROBUSTNESS.md):
// --fault-seed, --transient-p, --corrupt-p, --data-loss-p, --bad-pages.
Status ParseFaultFlags(const Flags& flags, FaultConfig* cfg) {
  NMRS_ASSIGN_OR_RETURN(cfg->seed, ParseCount(flags, "fault-seed", 1));
  cfg->transient_read_p =
      std::strtod(FlagOr(flags, "transient-p", "0").c_str(), nullptr);
  cfg->corrupt_p = std::strtod(FlagOr(flags, "corrupt-p", "0").c_str(),
                               nullptr);
  cfg->data_loss_p =
      std::strtod(FlagOr(flags, "data-loss-p", "0").c_str(), nullptr);
  for (const std::string& tok :
       StrSplit(FlagOr(flags, "bad-pages", ""), ',')) {
    if (tok.empty()) continue;
    const size_t colon = tok.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument(
          "--bad-pages entries must look like file:page, got '" + tok + "'");
    }
    const std::string file_tok = tok.substr(0, colon);
    const std::string page_tok = tok.substr(colon + 1);
    NMRS_ASSIGN_OR_RETURN(const uint64_t file,
                          ParseDigits("--bad-pages file", file_tok));
    NMRS_ASSIGN_OR_RETURN(const uint64_t page,
                          ParseDigits("--bad-pages page", page_tok));
    if (file > std::numeric_limits<FileId>::max()) {
      return Status::InvalidArgument("--bad-pages file id " +
                                     std::to_string(file) + " is out of range");
    }
    cfg->bad_pages.insert({static_cast<FileId>(file), page});
  }
  return Status::OK();
}

// --shards=N / --shard-by=zorder|hash (docs/SHARDING.md).
Status ParseShardPlan(const Flags& flags, ShardPlanOptions* plan) {
  NMRS_ASSIGN_OR_RETURN(
      plan->num_shards,
      ParseIntFlag(flags, "shards", 1, 1, std::numeric_limits<int>::max()));
  const std::string by = FlagOr(flags, "shard-by", "zorder");
  if (by == "zorder") {
    plan->shard_by = ShardBy::kZOrderRange;
  } else if (by == "hash") {
    plan->shard_by = ShardBy::kHash;
  } else {
    return Status::InvalidArgument("--shard-by must be 'zorder' or 'hash'");
  }
  return Status::OK();
}

std::string ShardCandidateSummary(const ShardQueryBreakdown& b) {
  std::string out = "cands/shard=[";
  for (size_t s = 0; s < b.shard_candidates.size(); ++s) {
    if (s > 0) out += ",";
    out += std::to_string(b.shard_candidates[s]);
  }
  out += "]";
  if (b.messages.messages != 0) {
    out += " exchange: " + b.messages.ToString();
  }
  return out;
}

// --bad-replicas=r:loss_p,...: pins the faults to the listed replicas only.
// Replica r gets the shared FaultConfig with data_loss_p forced to loss_p
// (and its usual derived per-replica seed); every unlisted replica runs
// clean. Without the flag a faulty template fans out to ALL replicas with
// derived seeds (ReplicaSet::DeriveConfigs).
Status ParseBadReplicas(const Flags& flags, const FaultConfig& base,
                        const ResiliencePolicy& policy,
                        std::vector<FaultConfig>* out) {
  const std::string spec = FlagOr(flags, "bad-replicas", "");
  if (spec.empty()) return Status::OK();
  out->assign(static_cast<size_t>(policy.replicas), FaultConfig{});
  for (const std::string& tok : StrSplit(spec, ',')) {
    if (tok.empty()) continue;
    const size_t colon = tok.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument(
          "--bad-replicas entries must look like replica:loss_p, got '" +
          tok + "'");
    }
    NMRS_ASSIGN_OR_RETURN(
        const uint64_t r,
        ParseDigits("--bad-replicas index", tok.substr(0, colon)));
    if (r >= static_cast<uint64_t>(policy.replicas)) {
      return Status::InvalidArgument(
          "--bad-replicas index " + std::to_string(r) +
          " out of range for --replicas=" + std::to_string(policy.replicas));
    }
    FaultConfig cfg = base;
    cfg.seed = ReplicaSet::ReplicaSeed(base.seed,
                                       policy.replica_fault_seed_base,
                                       static_cast<int>(r));
    cfg.data_loss_p = std::strtod(tok.substr(colon + 1).c_str(), nullptr);
    (*out)[static_cast<size_t>(r)] = cfg;
  }
  return Status::OK();
}

std::string ReplicaReadsSummary(const IoStats& io) {
  std::string out;
  for (size_t r = 0; r < IoStats::kMaxReplicas; ++r) {
    if (io.replica_reads[r] == 0) continue;
    if (!out.empty()) out += " ";
    out += "r" + std::to_string(r) + "=" +
           std::to_string(io.replica_reads[r]);
  }
  return out;
}

int CmdGenerate(const Flags& flags) {
  const auto rows = ParseCount(flags, "rows", 1000);
  if (!rows.ok()) return Fail(rows.status().ToString());
  const auto cards_u64 = ParseUintList(flags, "cards", "10,10,10");
  if (!cards_u64.ok()) return Fail(cards_u64.status().ToString());
  std::vector<size_t> cards(cards_u64->begin(), cards_u64->end());
  if (cards.empty()) return Fail("--cards must list at least one domain");
  const std::string out = FlagOr(flags, "out", "data.csv");
  const auto seed = ParseCount(flags, "seed", 42);
  if (!seed.ok()) return Fail(seed.status().ToString());
  const std::string dist = FlagOr(flags, "dist", "normal");

  Rng rng(*seed);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  Dataset data = [&] {
    if (dist == "uniform") return GenerateUniform(*rows, cards, data_rng);
    if (dist == "zipf") return GenerateZipf(*rows, cards, 1.1, data_rng);
    return GenerateNormal(*rows, cards, data_rng);
  }();
  Status s = WriteDatasetCsvFile(data, out);
  if (!s.ok()) return Fail(s.ToString());
  std::printf("wrote %llu rows to %s (density %.6f%%)\n",
              static_cast<unsigned long long>(*rows), out.c_str(),
              data.Density() * 100);

  const std::string prefix = FlagOr(flags, "matrices", "");
  if (!prefix.empty()) {
    for (AttrId a = 0; a < cards.size(); ++a) {
      DissimilarityMatrix m = MakeRandomMatrix(cards[a], space_rng);
      const std::string path = prefix + std::to_string(a) + ".csv";
      s = WriteMatrixCsvFile(m, path);
      if (!s.ok()) return Fail(s.ToString());
      std::printf("wrote matrix %s (triangle violation rate %.3f)\n",
                  path.c_str(), m.TriangleViolationRate());
    }
  }
  return 0;
}

struct LoadedQuery {
  Dataset data;
  SimilaritySpace space;
  Object query;
};

StatusOr<LoadedQuery> LoadQuerySetup(const Flags& flags) {
  const std::string data_path = FlagOr(flags, "data", "");
  const std::string prefix = FlagOr(flags, "matrices", "");
  const std::string query_csv = FlagOr(flags, "query", "");
  if (data_path.empty() || prefix.empty() || query_csv.empty()) {
    return Status::InvalidArgument(
        "--data=, --matrices= and --query= are required");
  }
  NMRS_ASSIGN_OR_RETURN(Dataset data, ReadDatasetCsvFile(data_path));
  NMRS_ASSIGN_OR_RETURN(SimilaritySpace space,
                        LoadSpace(data.schema(), prefix));
  NMRS_ASSIGN_OR_RETURN(Object query, ParseQuery(data, query_csv));
  return LoadedQuery{std::move(data), std::move(space), std::move(query)};
}

// Page segments the batch decoded once and shared, per shard
// (docs/CACHING.md, "Segment store"); printed only when some shard kept a
// store.
void PrintSegmentsBuilt(const BatchResult& batch) {
  uint64_t total = 0;
  for (uint64_t n : batch.shard_segments_built) total += n;
  if (total == 0) return;
  std::printf("  page segments built:");
  for (uint64_t n : batch.shard_segments_built) {
    std::printf(" %llu", static_cast<unsigned long long>(n));
  }
  std::printf("\n");
}

void PrintStats(const QueryStats& s) {
  std::printf(
      "  checks=%llu (p1 %llu, p2 %llu)  survivors=%llu  batches=%llu+%llu\n"
      "  io: %llu seq + %llu rand pages   compute=%.2fms  response=%.2fms\n",
      static_cast<unsigned long long>(s.checks),
      static_cast<unsigned long long>(s.phase1_checks),
      static_cast<unsigned long long>(s.phase2_checks),
      static_cast<unsigned long long>(s.phase1_survivors),
      static_cast<unsigned long long>(s.phase1_batches),
      static_cast<unsigned long long>(s.phase2_batches),
      static_cast<unsigned long long>(s.io.TotalSequential()),
      static_cast<unsigned long long>(s.io.TotalRandom()),
      s.compute_millis, s.ResponseMillis());
  if (s.kernel_checks != 0 || s.kernel_scalar_rows != 0 ||
      s.kernel_promotions != 0) {
    std::printf(
        "  kernel_checks=%llu  promotions=%llu  scalar_rows=%llu  "
        "block_rows=%llu\n",
        static_cast<unsigned long long>(s.kernel_checks),
        static_cast<unsigned long long>(s.kernel_promotions),
        static_cast<unsigned long long>(s.kernel_scalar_rows),
        static_cast<unsigned long long>(s.kernel_block_rows));
  }
  if (s.io.transient_retries != 0 || s.io.checksum_failures != 0 ||
      s.io.quarantined_pages != 0 || s.io.failovers != 0) {
    std::printf(
        "  faults: %llu transient retries, %llu checksum failures, "
        "%llu quarantined page reads, %llu failovers\n",
        static_cast<unsigned long long>(s.io.transient_retries),
        static_cast<unsigned long long>(s.io.checksum_failures),
        static_cast<unsigned long long>(s.io.quarantined_pages),
        static_cast<unsigned long long>(s.io.failovers));
  }
  if (s.io.ReplicaReadsTotal() != 0) {
    std::printf("  replica reads: %s\n", ReplicaReadsSummary(s.io).c_str());
  }
}

int CmdQuery(const Flags& flags) {
  auto setup = LoadQuerySetup(flags);
  if (!setup.ok()) return Fail(setup.status().ToString());
  auto algo = ParseAlgorithm(FlagOr(flags, "algo", "trs"));
  if (!algo.ok()) return Fail(algo.status().ToString());

  // Everything below routes through the Database front door
  // (docs/MUTABILITY.md): Open prepares the dataset as generation 0 and
  // the query runs as a one-element batch over the pinned base snapshot —
  // bit-identical rows and counters to the historical direct
  // PrepareDataset + RunReverseSkyline wiring.
  DatabaseOptions dbopts;
  dbopts.algo = *algo;
  dbopts.prepare.checksum_pages = flags.count("checksum") != 0;
  const RowCodec codec(setup->data.schema(), kDefaultPageSize,
                       dbopts.prepare.checksum_pages);
  Status st = ParseCommonOptions(flags, setup->data.schema(),
                                 codec.PagesFor(setup->data.num_rows()),
                                 &dbopts.engine.rs);
  if (!st.ok()) return Fail(st.ToString());
  PrintKernelBanner(dbopts.engine.rs);

  // --overlay-file evaluates the query under one user's preference overlay
  // (docs/OVERLAYS.md) — both the single-shard and sharded paths read it
  // from RSOptions.
  std::optional<MatrixOverlay> overlay;
  if (flags.count("overlay-file") != 0) {
    auto loaded = LoadOverlayFile(setup->space,
                                  FlagOr(flags, "overlay-file", ""));
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    overlay.emplace(std::move(*loaded));
    dbopts.engine.rs.overlay = &*overlay;
    std::printf("overlay: %zu delta entries\n", overlay->num_entries());
  }

  st = ParseFaultFlags(flags, &dbopts.engine.faults);
  if (!st.ok()) return Fail(st.ToString());
  auto max_retries = ParseIntFlag(flags, "max-query-retries", 0, 0,
                                  std::numeric_limits<int>::max());
  if (!max_retries.ok()) return Fail(max_retries.status().ToString());
  dbopts.engine.max_query_retries = *max_retries;
  auto workers = ParseCount(flags, "workers", 1);
  if (!workers.ok()) return Fail(workers.status().ToString());
  if (*workers < 1) return Fail("--workers must be at least 1");
  dbopts.engine.num_workers = *workers;
  if (flags.count("shards") != 0) {
    st = ParseShardPlan(flags, &dbopts.shard_plan);
    if (!st.ok()) return Fail(st.ToString());
    dbopts.num_shards = dbopts.shard_plan.num_shards;
  }

  auto db = Database::Open(setup->data, setup->space, dbopts);
  if (!db.ok()) return Fail(db.status().ToString());
  auto batch = (*db)->RunBatch({setup->query});
  if (!batch.ok()) return Fail(batch.status().ToString());
  if (!batch->statuses()[0].ok()) return Fail(batch->statuses()[0].ToString());

  const bool sharded = dbopts.num_shards > 1;
  if (sharded) {
    std::printf("RS(Q) via %s over %d %s shards: %zu rows\n",
                std::string(AlgorithmName(*algo)).c_str(),
                dbopts.shard_plan.num_shards,
                std::string(ShardByName(dbopts.shard_plan.shard_by)).c_str(),
                batch->results()[0].rows.size());
  } else {
    std::printf("RS(Q) via %s: %zu rows\n",
                std::string(AlgorithmName(*algo)).c_str(),
                batch->results()[0].rows.size());
  }
  for (RowId r : batch->results()[0].rows) {
    std::printf("  row %llu %s\n", static_cast<unsigned long long>(r),
                setup->data.GetObject(r).ToString().c_str());
  }
  if (sharded) {
    std::printf("  %s\n",
                ShardCandidateSummary(batch->batch().breakdown[0]).c_str());
  }
  PrintStats(batch->results()[0].stats);
  PrintSegmentsBuilt(batch->batch());
  return 0;
}

int CmdCompare(const Flags& flags) {
  auto setup = LoadQuerySetup(flags);
  if (!setup.ok()) return Fail(setup.status().ToString());

  SimulatedDisk disk;
  std::printf("%-6s %-8s %-12s %-10s %-10s %-10s\n", "algo", "result",
              "checks", "seq IO", "rand IO", "compute");
  for (Algorithm algo :
       {Algorithm::kBRS, Algorithm::kSRS, Algorithm::kTRS}) {
    auto prepared = PrepareDataset(&disk, setup->data, algo);
    if (!prepared.ok()) return Fail(prepared.status().ToString());
    RSOptions opts;
    Status st = ParseCommonOptions(flags, setup->data.schema(),
                                   prepared->stored.num_pages(), &opts);
    if (!st.ok()) return Fail(st.ToString());
    auto result = RunReverseSkyline(*prepared, setup->space, setup->query,
                                    algo, opts);
    if (!result.ok()) return Fail(result.status().ToString());
    std::printf("%-6s %-8zu %-12llu %-10llu %-10llu %.2fms\n",
                std::string(AlgorithmName(algo)).c_str(),
                result->rows.size(),
                static_cast<unsigned long long>(result->stats.checks),
                static_cast<unsigned long long>(
                    result->stats.io.TotalSequential()),
                static_cast<unsigned long long>(
                    result->stats.io.TotalRandom()),
                result->stats.compute_millis);
  }
  return 0;
}

int CmdSkyline(const Flags& flags) {
  auto setup = LoadQuerySetup(flags);
  if (!setup.ok()) return Fail(setup.status().ToString());
  auto sky = DynamicSkylineBNL(setup->data, setup->space, setup->query);
  std::printf("dynamic skyline w.r.t. %s: %zu rows\n",
              setup->query.ToString().c_str(), sky.size());
  for (RowId r : sky) {
    std::printf("  row %llu %s\n", static_cast<unsigned long long>(r),
                setup->data.GetObject(r).ToString().c_str());
  }
  return 0;
}

int CmdInfluence(const Flags& flags) {
  const std::string data_path = FlagOr(flags, "data", "");
  const std::string prefix = FlagOr(flags, "matrices", "");
  if (data_path.empty() || prefix.empty()) {
    return Fail("--data= and --matrices= are required");
  }
  auto data = ReadDatasetCsvFile(data_path);
  if (!data.ok()) return Fail(data.status().ToString());
  auto space = LoadSpace(data->schema(), prefix);
  if (!space.ok()) return Fail(space.status().ToString());

  auto num_queries = ParseIntFlag(flags, "queries", 10, 0,
                                  std::numeric_limits<int>::max());
  if (!num_queries.ok()) return Fail(num_queries.status().ToString());
  const int k = *num_queries;
  const auto seed = ParseCount(flags, "seed", 42);
  if (!seed.ok()) return Fail(seed.status().ToString());
  Rng rng(*seed);
  std::vector<Object> queries;
  for (int i = 0; i < k; ++i) {
    queries.push_back(SampleUniformQuery(*data, rng));
  }

  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, *data, Algorithm::kTRS);
  if (!prepared.ok()) return Fail(prepared.status().ToString());
  RSOptions opts;
  Status st = ParseCommonOptions(flags, data->schema(),
                                 prepared->stored.num_pages(), &opts);
  if (!st.ok()) return Fail(st.ToString());
  auto report = AnalyzeInfluence(*prepared, *space, queries, Algorithm::kTRS,
                                 opts);
  if (!report.ok()) return Fail(report.status().ToString());

  std::printf("%-8s %-20s %s\n", "rank", "query", "influence |RS(Q)|");
  int rank = 1;
  for (const auto& entry : report->ranking) {
    std::printf("%-8d %-20s %llu\n", rank++,
                queries[entry.query_index].ToString().c_str(),
                static_cast<unsigned long long>(entry.influence));
  }
  std::printf("\ntotal influence %llu, top-3 share %.1f%%, Gini %.2f\n",
              static_cast<unsigned long long>(report->total_influence),
              report->TopShare(3) * 100, report->Gini());
  return 0;
}

int CmdBatch(const Flags& flags) {
  const std::string data_path = FlagOr(flags, "data", "");
  const std::string prefix = FlagOr(flags, "matrices", "");
  if (data_path.empty() || prefix.empty()) {
    return Fail("--data= and --matrices= are required");
  }
  auto data = ReadDatasetCsvFile(data_path);
  if (!data.ok()) return Fail(data.status().ToString());
  auto space = LoadSpace(data->schema(), prefix);
  if (!space.ok()) return Fail(space.status().ToString());
  auto algo = ParseAlgorithm(FlagOr(flags, "algo", "trs"));
  if (!algo.ok()) return Fail(algo.status().ToString());

  auto num_queries = ParseIntFlag(flags, "queries", 8, 1,
                                  std::numeric_limits<int>::max());
  if (!num_queries.ok()) return Fail(num_queries.status().ToString());
  const int k = *num_queries;
  const auto seed = ParseCount(flags, "seed", 42);
  if (!seed.ok()) return Fail(seed.status().ToString());
  Rng rng(*seed);
  std::vector<Object> queries;
  for (int i = 0; i < k; ++i) {
    queries.push_back(SampleUniformQuery(*data, rng));
  }

  // The batch runs through the Database front door (docs/MUTABILITY.md):
  // Open prepares the dataset as generation 0, the engine options below
  // shape the snapshot's executor.
  DatabaseOptions dbopts;
  dbopts.algo = *algo;
  dbopts.prepare.checksum_pages = flags.count("checksum") != 0;
  const RowCodec codec(data->schema(), kDefaultPageSize,
                       dbopts.prepare.checksum_pages);
  const uint64_t dataset_pages = codec.PagesFor(data->num_rows());

  EngineOptions& eopts = dbopts.engine;
  auto workers = ParseCount(flags, "workers", 4);
  if (!workers.ok()) return Fail(workers.status().ToString());
  if (*workers < 1) return Fail("--workers must be at least 1");
  eopts.num_workers = *workers;
  Status st = ParseCommonOptions(flags, data->schema(), dataset_pages,
                                 &eopts.rs);
  if (!st.ok()) return Fail(st.ToString());
  PrintKernelBanner(eopts.rs);
  st = ParseFaultFlags(flags, &eopts.faults);
  if (!st.ok()) return Fail(st.ToString());
  st = ParseBadReplicas(flags, eopts.faults, eopts.rs.resilience,
                        &eopts.replica_faults);
  if (!st.ok()) return Fail(st.ToString());
  auto max_retries = ParseIntFlag(flags, "max-query-retries", 0, 0,
                                  std::numeric_limits<int>::max());
  if (!max_retries.ok()) return Fail(max_retries.status().ToString());
  eopts.max_query_retries = *max_retries;
  eopts.fail_fast = flags.count("fail-fast") != 0;
  if (flags.count("cache-pages") != 0 && flags.count("cache-pct") != 0) {
    return Fail("--cache-pages and --cache-pct are mutually exclusive");
  }
  if (flags.count("cache-pages") != 0) {
    auto cache = ParseCount(flags, "cache-pages", 0);
    if (!cache.ok()) return Fail(cache.status().ToString());
    eopts.cache_pages = *cache;
  } else if (flags.count("cache-pct") != 0) {
    const double pct =
        std::strtod(FlagOr(flags, "cache-pct", "0").c_str(), nullptr);
    if (pct < 0 || pct > 100) return Fail("--cache-pct must be in [0, 100]");
    eopts.cache_pages =
        pct == 0 ? 0
                 : MemoryBudget::FromFraction(pct / 100.0, dataset_pages)
                       .pages;
  }

  if (flags.count("shards") != 0) {
    st = ParseShardPlan(flags, &dbopts.shard_plan);
    if (!st.ok()) return Fail(st.ToString());
    dbopts.num_shards = dbopts.shard_plan.num_shards;
  }

  auto db = Database::Open(*data, *space, dbopts);
  if (!db.ok()) return Fail(db.status().ToString());
  // With no mutations yet the snapshot IS the base generation (free); the
  // handle gives the printers access to the executor's telemetry.
  auto snap = (*db)->Snapshot();
  if (!snap.ok()) return Fail(snap.status().ToString());

  // --overlay-users / --overlay-file: answer every query for K per-user
  // preference overlays through the incremental overlay executor
  // (docs/OVERLAYS.md) — one base run per query plus re-pruning of the
  // overlay-sensitive rows, instead of one full batch per user.
  if (flags.count("overlay-users") != 0 || flags.count("overlay-file") != 0) {
    auto users = ParseCount(flags, "overlay-users", 0);
    if (!users.ok()) return Fail(users.status().ToString());
    const double touch_pct = std::strtod(
        FlagOr(flags, "overlay-touch-pct", "1").c_str(), nullptr);
    if (!(touch_pct >= 0) || touch_pct > 100) {
      return Fail("--overlay-touch-pct must be in [0, 100]");
    }
    std::vector<MatrixOverlay> overlays;
    overlays.reserve(static_cast<size_t>(*users) + 1);
    if (flags.count("overlay-file") != 0) {
      auto loaded = LoadOverlayFile(*space, FlagOr(flags, "overlay-file", ""));
      if (!loaded.ok()) return Fail(loaded.status().ToString());
      overlays.push_back(std::move(*loaded));
    }
    const auto overlay_seed = ParseCount(flags, "overlay-seed", 7);
    if (!overlay_seed.ok()) return Fail(overlay_seed.status().ToString());
    Rng orng(*overlay_seed);
    for (uint64_t u = 0; u < *users; ++u) {
      overlays.push_back(MakeRandomOverlay(*space, orng, touch_pct / 100.0));
    }
    if (overlays.empty()) {
      return Fail("--overlay-users must be at least 1 "
                  "when no --overlay-file is given");
    }
    std::vector<const MatrixOverlay*> ptrs;
    size_t total_entries = 0;
    for (const auto& o : overlays) {
      ptrs.push_back(&o);
      total_entries += o.num_entries();
    }

    auto dbob = snap->RunOverlayBatch(queries, ptrs);
    if (!dbob.ok()) return Fail(dbob.status().ToString());
    const OverlayBatchResult& ob = dbob->batch();
    std::printf("overlay batch: %d queries x %zu users "
                "(%zu delta entries total)\n",
                k, ptrs.size(), total_entries);
    for (int i = 0; i < k; ++i) {
      if (!ob.statuses[i].ok()) {
        std::printf("  Q%-3d %-20s FAILED: %s\n", i,
                    queries[i].ToString().c_str(),
                    ob.statuses[i].ToString().c_str());
        continue;
      }
      std::string sizes;
      const size_t show = std::min<size_t>(ob.results[i].size(), 16);
      for (size_t u = 0; u < show; ++u) {
        if (u > 0) sizes += ",";
        sizes += std::to_string(ob.results[i][u].rows.size());
      }
      if (ob.results[i].size() > show) sizes += ",...";
      std::printf("  Q%-3d %-20s |RS| per user = [%s]\n", i,
                  queries[i].ToString().c_str(), sizes.c_str());
    }
    std::printf(
        "rows: %llu overlay-sensitive + %llu invariant (user, row) pairs\n"
        "re-checks: %llu scans, %llu candidate checks, %llu pair tests\n"
        "overlay io: %llu seq + %llu rand pages  total io: %llu pages\n"
        "wall %.1fms, modeled makespan %.1fms, modeled throughput %.2f "
        "answers/s\n",
        static_cast<unsigned long long>(ob.sensitive_rows),
        static_cast<unsigned long long>(ob.invariant_rows),
        static_cast<unsigned long long>(ob.recheck_scans),
        static_cast<unsigned long long>(ob.recheck_checks),
        static_cast<unsigned long long>(ob.recheck_pair_tests),
        static_cast<unsigned long long>(ob.overlay_io.TotalSequential()),
        static_cast<unsigned long long>(ob.overlay_io.TotalRandom()),
        static_cast<unsigned long long>(ob.total_io.Total()),
        ob.wall_millis, ob.ModeledMakespanMillis(), ob.ModeledQps());
    if (!ob.ok()) {
      std::fprintf(stderr, "some queries failed: %s\n",
                   ob.first_error().ToString().c_str());
      return 1;
    }
    return 0;
  }

  auto dbr = snap->RunBatch(queries);
  if (!dbr.ok()) return Fail(dbr.status().ToString());
  const BatchResult& batch = dbr->batch();
  const QueryEngine& engine = snap->engine();
  const bool sharded = engine.num_shards() > 1;

  if (sharded) {
    std::printf("batch of %d %s queries on %zu workers x %d %s shards:\n", k,
                std::string(AlgorithmName(*algo)).c_str(),
                engine.num_workers(), engine.num_shards(),
                std::string(ShardByName(dbopts.shard_plan.shard_by)).c_str());
  } else {
    std::printf("batch of %d %s queries on %zu workers:\n", k,
                std::string(AlgorithmName(*algo)).c_str(),
                engine.num_workers());
  }
  for (int i = 0; i < k; ++i) {
    const QueryStats& s = batch.results[i].stats;
    if (batch.statuses[i].ok()) {
      std::printf("  Q%-3d %-20s |RS|=%-5zu response=%.2fms%s%s\n", i,
                  queries[i].ToString().c_str(),
                  batch.results[i].rows.size(), s.ResponseMillis(),
                  sharded ? " " : "",
                  sharded ? ShardCandidateSummary(batch.breakdown[i]).c_str()
                          : "");
    } else {
      std::printf("  Q%-3d %-20s FAILED: %s (partial io %llu pages)\n", i,
                  queries[i].ToString().c_str(),
                  batch.statuses[i].ToString().c_str(),
                  static_cast<unsigned long long>(s.io.Total()));
    }
  }
  std::printf("total io: %llu seq + %llu rand pages\n",
              static_cast<unsigned long long>(batch.total_io.TotalSequential()),
              static_cast<unsigned long long>(batch.total_io.TotalRandom()));
  if (sharded) {
    std::printf("exchange: %s (modeled %.2fms)\n",
                batch.total_messages.ToString().c_str(),
                batch.ExchangeModeledMillis());
  }
  std::printf(
      "wall %.1fms, modeled makespan %.1fms, modeled throughput %.2f q/s\n",
      batch.wall_millis, batch.ModeledMakespanMillis(), batch.ModeledQps());
  if (eopts.rs.use_kernels) {
    uint64_t kchecks = 0, promos = 0, scalar_rows = 0, block_rows = 0;
    for (const auto& r : batch.results) {
      kchecks += r.stats.kernel_checks;
      promos += r.stats.kernel_promotions;
      scalar_rows += r.stats.kernel_scalar_rows;
      block_rows += r.stats.kernel_block_rows;
    }
    std::printf("kernels: %llu kernel checks, %llu promotions, "
                "%llu scalar rows, %llu block rows\n",
                static_cast<unsigned long long>(kchecks),
                static_cast<unsigned long long>(promos),
                static_cast<unsigned long long>(scalar_rows),
                static_cast<unsigned long long>(block_rows));
  }
  if (batch.total_io.transient_retries != 0 ||
      batch.total_io.checksum_failures != 0 ||
      batch.total_io.quarantined_pages != 0 ||
      batch.total_io.failovers != 0) {
    std::printf("faults: %llu transient retries, %llu checksum failures, "
                "%llu quarantined page reads, %llu failovers\n",
                static_cast<unsigned long long>(
                    batch.total_io.transient_retries),
                static_cast<unsigned long long>(
                    batch.total_io.checksum_failures),
                static_cast<unsigned long long>(
                    batch.total_io.quarantined_pages),
                static_cast<unsigned long long>(batch.total_io.failovers));
  }
  if (batch.total_io.ReplicaReadsTotal() != 0) {
    std::printf("replica reads: %s\n",
                ReplicaReadsSummary(batch.total_io).c_str());
  }
  if (!batch.quarantined.empty()) {
    std::printf("quarantined pages:");
    for (const auto& [file, page] : batch.quarantined) {
      std::printf(" %u:%llu", file, static_cast<unsigned long long>(page));
    }
    std::printf("\n");
  }
  if (batch.queries_retried != 0) {
    std::printf("%llu queries recovered via clean-view retry\n",
                static_cast<unsigned long long>(batch.queries_retried));
  }
  for (int s = 0; s < engine.num_shards(); ++s) {
    const BufferPool* cache = engine.buffer_pool(s);
    if (cache == nullptr) continue;
    std::printf("cache (%s%llu pages): %s\n",
                sharded ? ("shard " + std::to_string(s) + ", ").c_str() : "",
                static_cast<unsigned long long>(cache->capacity_pages()),
                cache->stats().ToString().c_str());
  }
  if (!batch.ok()) {
    std::fprintf(stderr, "%zu of %d queries failed\n", batch.num_failed(),
                 k);
    return 1;
  }
  return 0;
}

// `serve` — online serving loop (docs/MUTABILITY.md): opens the CSV
// dataset as a mutable Database and applies a scripted workload of
// interleaved mutations and queries. Script grammar, one command per
// line ('#' starts a comment, blank lines are skipped):
//
//   insert v1,v2,...   append a row (numeric attrs take doubles)
//   delete KEY         remove the live row with that stable key
//   query v1,v2,...    reverse-skyline query over the current snapshot
//   batch K            K sampled queries as one engine batch
//   compact            fold the delta into a new base generation
//   snapshot           print the pinned epoch (generation, delta, rows)
//   stats              print cumulative DbStats
//
// Output sticks to deterministic fields (keys, row literals, counts) so
// scripted runs can be diffed; a failing script line aborts with its
// line number and a non-zero exit.
int CmdServe(const Flags& flags) {
  const std::string data_path = FlagOr(flags, "data", "");
  const std::string prefix = FlagOr(flags, "matrices", "");
  const std::string script_path = FlagOr(flags, "script", "");
  if (data_path.empty() || prefix.empty() || script_path.empty()) {
    return Fail("--data=, --matrices= and --script= are required");
  }
  auto data = ReadDatasetCsvFile(data_path);
  if (!data.ok()) return Fail(data.status().ToString());
  auto space = LoadSpace(data->schema(), prefix);
  if (!space.ok()) return Fail(space.status().ToString());
  auto algo = ParseAlgorithm(FlagOr(flags, "algo", "trs"));
  if (!algo.ok()) return Fail(algo.status().ToString());

  DatabaseOptions dbopts;
  dbopts.algo = *algo;
  dbopts.prepare.checksum_pages = flags.count("checksum") != 0;
  const RowCodec codec(data->schema(), kDefaultPageSize,
                       dbopts.prepare.checksum_pages);
  Status st = ParseCommonOptions(flags, data->schema(),
                                 codec.PagesFor(data->num_rows()),
                                 &dbopts.engine.rs);
  if (!st.ok()) return Fail(st.ToString());
  auto workers = ParseCount(flags, "workers", 1);
  if (!workers.ok()) return Fail(workers.status().ToString());
  if (*workers < 1) return Fail("--workers must be at least 1");
  dbopts.engine.num_workers = *workers;
  if (flags.count("cache-pages") != 0) {
    auto cache = ParseCount(flags, "cache-pages", 0);
    if (!cache.ok()) return Fail(cache.status().ToString());
    dbopts.engine.cache_pages = *cache;
  }
  if (flags.count("shards") != 0) {
    st = ParseShardPlan(flags, &dbopts.shard_plan);
    if (!st.ok()) return Fail(st.ToString());
    dbopts.num_shards = dbopts.shard_plan.num_shards;
  }
  if (flags.count("max-delta") != 0) {
    auto max_delta = ParseCount(flags, "max-delta", dbopts.max_delta_mutations);
    if (!max_delta.ok()) return Fail(max_delta.status().ToString());
    dbopts.max_delta_mutations = *max_delta;
  }

  auto db = Database::Open(*data, *space, dbopts);
  if (!db.ok()) return Fail(db.status().ToString());

  // key -> printable row literal, kept in lockstep with the mutations so
  // query results can show row contents without re-reading pages.
  std::map<uint64_t, std::string> mirror;
  for (RowId r = 0; r < data->num_rows(); ++r) {
    mirror[r] = data->GetObject(r).ToString();
  }

  std::ifstream in(script_path);
  if (!in) return Fail("cannot open --script=" + script_path);
  const auto seed = ParseCount(flags, "seed", 42);
  if (!seed.ok()) return Fail(seed.status().ToString());
  Rng rng(*seed);

  const auto delta_tag = [](const DeltaVersion& v) {
    return "+" + std::to_string(v.inserts) + "i/" +
           std::to_string(v.deletes) + "d";
  };
  const auto fail_line = [](int line_no, const std::string& msg) {
    return Fail("script line " + std::to_string(line_no) + ": " + msg);
  };

  uint64_t queries_run = 0;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream tokens(line);
    std::string cmd, rest;
    tokens >> cmd;
    std::getline(tokens, rest);
    const size_t start = rest.find_first_not_of(" \t");
    const size_t end = rest.find_last_not_of(" \t");
    rest = start == std::string::npos ? ""
                                      : rest.substr(start, end - start + 1);
    if (cmd.empty()) continue;

    if (cmd == "insert") {
      std::vector<ValueId> values;
      std::vector<double> numerics;
      st = ParseRowSpec((*db)->schema(), rest, &values, &numerics);
      if (!st.ok()) return fail_line(line_no, st.ToString());
      auto key = (*db)->Insert(values, numerics);
      if (!key.ok()) return fail_line(line_no, key.status().ToString());
      mirror[*key] = (*db)->MakeObject(values, numerics).ToString();
      std::printf("insert key=%llu %s (%s)\n",
                  static_cast<unsigned long long>(*key),
                  mirror[*key].c_str(),
                  delta_tag((*db)->delta_version()).c_str());
    } else if (cmd == "delete") {
      auto parsed = ParseDigits("delete key", rest);
      if (!parsed.ok()) return fail_line(line_no, parsed.status().ToString());
      const uint64_t key = *parsed;
      st = (*db)->Delete(key);
      if (!st.ok()) return fail_line(line_no, st.ToString());
      mirror.erase(key);
      std::printf("delete key=%llu (%s)\n",
                  static_cast<unsigned long long>(key),
                  delta_tag((*db)->delta_version()).c_str());
    } else if (cmd == "query") {
      std::vector<ValueId> values;
      std::vector<double> numerics;
      st = ParseRowSpec((*db)->schema(), rest, &values, &numerics);
      if (!st.ok()) return fail_line(line_no, st.ToString());
      auto r = (*db)->Query((*db)->MakeObject(values, numerics));
      if (!r.ok()) return fail_line(line_no, r.status().ToString());
      ++queries_run;
      std::printf("RS(Q=%s) via %s @gen%llu%s: %zu rows\n", rest.c_str(),
                  std::string(AlgorithmName(*algo)).c_str(),
                  static_cast<unsigned long long>(r->snapshot_generation),
                  delta_tag(r->snapshot_version).c_str(),
                  r->keys.size());
      for (uint64_t key : r->keys) {
        const auto it = mirror.find(key);
        std::printf("  key %llu %s\n", static_cast<unsigned long long>(key),
                    it == mirror.end() ? "?" : it->second.c_str());
      }
    } else if (cmd == "batch") {
      auto count = ParseDigits("batch count", rest);
      if (!count.ok()) return fail_line(line_no, count.status().ToString());
      if (*count < 1 || *count > std::numeric_limits<int>::max()) {
        return fail_line(line_no, "batch needs a positive count");
      }
      const int k = static_cast<int>(*count);
      std::vector<Object> queries;
      queries.reserve(k);
      for (int i = 0; i < k; ++i) {
        queries.push_back(SampleUniformQuery(*data, rng));
      }
      auto batch = (*db)->RunBatch(queries);
      if (!batch.ok()) return fail_line(line_no, batch.status().ToString());
      if (!batch->ok()) {
        return fail_line(line_no, batch->first_error().ToString());
      }
      queries_run += k;
      std::string sizes;
      for (int i = 0; i < k; ++i) {
        if (i > 0) sizes += ",";
        sizes += std::to_string(batch->results()[i].rows.size());
      }
      std::printf("batch of %d @gen%llu%s: |RS| = [%s]\n", k,
                  static_cast<unsigned long long>(batch->snapshot_generation),
                  delta_tag(batch->snapshot_version).c_str(), sizes.c_str());
    } else if (cmd == "compact") {
      st = (*db)->Compact();
      if (!st.ok()) return fail_line(line_no, st.ToString());
      std::printf("compact -> gen%llu, %llu rows\n",
                  static_cast<unsigned long long>((*db)->generation()),
                  static_cast<unsigned long long>((*db)->num_rows()));
    } else if (cmd == "snapshot") {
      auto snap = (*db)->Snapshot();
      if (!snap.ok()) return fail_line(line_no, snap.status().ToString());
      std::printf("snapshot gen%llu%s: %llu rows\n",
                  static_cast<unsigned long long>(snap->generation()),
                  delta_tag(snap->delta_version()).c_str(),
                  static_cast<unsigned long long>(snap->num_rows()));
    } else if (cmd == "stats") {
      const DbStats s = (*db)->stats();
      std::printf("stats: %llu inserts, %llu deletes, %llu wal records, "
                  "%llu compactions, %llu snapshots built (+%llu reused)\n",
                  static_cast<unsigned long long>(s.inserts),
                  static_cast<unsigned long long>(s.deletes),
                  static_cast<unsigned long long>(s.wal_records),
                  static_cast<unsigned long long>(s.compactions),
                  static_cast<unsigned long long>(s.snapshots_built),
                  static_cast<unsigned long long>(s.snapshots_reused));
    } else {
      return fail_line(line_no, "unknown command '" + cmd + "'");
    }
  }

  const DbStats s = (*db)->stats();
  std::printf("served: %llu inserts, %llu deletes, %llu queries, "
              "%llu compactions; gen%llu holds %llu live rows\n",
              static_cast<unsigned long long>(s.inserts),
              static_cast<unsigned long long>(s.deletes),
              static_cast<unsigned long long>(queries_run),
              static_cast<unsigned long long>(s.compactions),
              static_cast<unsigned long long>((*db)->generation()),
              static_cast<unsigned long long>((*db)->num_rows()));
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: nmrs_cli <generate|query|compare|skyline|influence|"
                 "batch|serve> [--flags]\n"
                 "see the header comment of tools/nmrs_cli.cc\n");
    return 1;
  }
  const std::string cmd = argv[1];
  // The flags each command reads: ParseCommonOptions, ParseFaultFlags,
  // ParseShardPlan and LoadQuerySetup, plus the command's own.
  const FlagNames common = {"mem",          "attrs",    "threads",
                            "scalar",       "checksum", "retries",
                            "promote-rows", "replicas", "replica-seed-base"};
  const FlagNames faults = {"fault-seed", "transient-p", "corrupt-p",
                            "data-loss-p", "bad-pages"};
  const FlagNames shards = {"shards", "shard-by"};
  const FlagNames setup = {"data", "matrices", "query"};
  const struct {
    const char* name;
    int (*run)(const Flags&);
    std::vector<FlagNames> reads;
  } commands[] = {
      {"generate",
       CmdGenerate,
       {{"rows", "cards", "dist", "out", "matrices", "seed"}}},
      {"query",
       CmdQuery,
       {setup, common, faults, shards,
        {"algo", "overlay-file", "max-query-retries", "workers"}}},
      {"compare", CmdCompare, {setup, common}},
      {"skyline", CmdSkyline, {setup}},
      {"influence",
       CmdInfluence,
       {common, {"data", "matrices", "queries", "seed"}}},
      {"batch",
       CmdBatch,
       {common, faults, shards,
        {"data", "matrices", "algo", "queries", "seed", "workers",
         "bad-replicas", "max-query-retries", "fail-fast", "cache-pages",
         "cache-pct", "overlay-users", "overlay-touch-pct", "overlay-file",
         "overlay-seed"}}},
      {"serve",
       CmdServe,
       {common, shards,
        {"data", "matrices", "script", "algo", "workers", "cache-pages",
         "max-delta", "seed"}}},
  };
  for (const auto& c : commands) {
    if (cmd != c.name) continue;
    const StatusOr<Flags> flags = ParseFlags(argc, argv, c.reads);
    if (!flags.ok()) return Fail(flags.status().ToString());
    return c.run(*flags);
  }
  return Fail("unknown command '" + cmd + "'");
}

}  // namespace
}  // namespace nmrs

int main(int argc, char** argv) { return nmrs::Run(argc, argv); }
