#include "bench_util.h"

#include <cstdio>
#include <cstring>
#include <string>

#include "common/check.h"
#include "data/generators.h"

namespace nmrs {
namespace bench {

Args Args::Parse(int argc, char** argv, double default_scale) {
  Args args;
  args.scale = default_scale;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value_of("--scale=")) {
      args.scale = std::atof(v);
    } else if (const char* v = value_of("--seed=")) {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--queries=")) {
      args.queries = std::atoi(v);
    } else if (const char* v = value_of("--tiles=")) {
      args.tiles = std::strtoull(v, nullptr, 10);
    } else if (arg == "--quick") {
      args.quick = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "flags: --scale=<f> --seed=<n> --queries=<n> --tiles=<n> "
          "--quick\n");
    }
  }
  return args;
}

AlgoMetrics RunPoint(const Dataset& data, const SimilaritySpace& space,
                     Algorithm algo, double mem_fraction, const Args& args,
                     const std::vector<AttrId>& selected) {
  SimulatedDisk disk;  // 32 KiB pages (paper §5.1)
  PrepareOptions prep_opts;
  prep_opts.tiles_per_dim = args.tiles;
  auto prepared = PrepareDataset(&disk, data, algo, prep_opts);
  NMRS_CHECK(prepared.ok()) << prepared.status();

  RSOptions opts;
  // The paper's figures measure the seed scalar loops; with the kernels
  // TRS would report its phase-1 probe as kernel_checks instead of the
  // tree-group checks the figures plot.
  opts.use_kernels = false;
  opts.memory =
      MemoryBudget::FromFraction(mem_fraction, prepared->stored.num_pages());
  opts.selected_attrs = selected;

  AlgoMetrics avg;
  Rng query_rng(args.seed * 7919 + 17);
  const int queries = args.queries < 1 ? 1 : args.queries;
  for (int qi = 0; qi < queries; ++qi) {
    const Object q = SampleUniformQuery(data, query_rng);
    auto result = RunReverseSkyline(*prepared, space, q, algo, opts);
    NMRS_CHECK(result.ok()) << result.status();
    const QueryStats& s = result->stats;
    avg.compute_ms += s.compute_millis;
    avg.response_ms += s.ResponseMillis();
    avg.seq_io += static_cast<double>(s.io.TotalSequential());
    avg.rand_io += static_cast<double>(s.io.TotalRandom());
    avg.checks += static_cast<double>(s.checks);
    avg.survivors += static_cast<double>(s.phase1_survivors);
    avg.result_size += static_cast<double>(s.result_size);
  }
  const double n = queries;
  avg.compute_ms /= n;
  avg.response_ms /= n;
  avg.seq_io /= n;
  avg.rand_io /= n;
  avg.checks /= n;
  avg.survivors /= n;
  avg.result_size /= n;
  return avg;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

JsonWriter::JsonWriter(std::string benchmark_name)
    : name_(std::move(benchmark_name)) {}

void JsonWriter::BeginRun() { runs_.emplace_back(); }

void JsonWriter::Field(const std::string& key, double value) {
  NMRS_CHECK(!runs_.empty()) << "Field() before BeginRun()";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  runs_.back().emplace_back(key, buf);
}

void JsonWriter::Field(const std::string& key, uint64_t value) {
  NMRS_CHECK(!runs_.empty()) << "Field() before BeginRun()";
  runs_.back().emplace_back(key, std::to_string(value));
}

void JsonWriter::Field(const std::string& key, const std::string& value) {
  NMRS_CHECK(!runs_.empty()) << "Field() before BeginRun()";
  runs_.back().emplace_back(key, "\"" + JsonEscape(value) + "\"");
}

bool JsonWriter::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "JsonWriter: cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"%s\",\n  \"runs\": [\n",
               JsonEscape(name_).c_str());
  for (size_t r = 0; r < runs_.size(); ++r) {
    std::fprintf(f, "    {");
    for (size_t i = 0; i < runs_[r].size(); ++i) {
      std::fprintf(f, "%s\"%s\": %s", i == 0 ? "" : ", ",
                   JsonEscape(runs_[r][i].first).c_str(),
                   runs_[r][i].second.c_str());
    }
    std::fprintf(f, "}%s\n", r + 1 < runs_.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

std::vector<std::string> JsonWriter::RunKeys(size_t i) const {
  NMRS_CHECK(i < runs_.size());
  std::vector<std::string> keys;
  keys.reserve(runs_[i].size());
  for (const auto& [key, value] : runs_[i]) keys.push_back(key);
  return keys;
}

void EmitIoFields(JsonWriter* json, const IoStats& io) {
  // Schema pin: every IoStats counter must be represented below. Growing
  // IoStats bumps its size and trips this assert until the new counter is
  // emitted (or folded into a derived field) — no more silent drops.
  static_assert(sizeof(IoStats) ==
                    (11 + IoStats::kMaxReplicas) * sizeof(uint64_t),
                "IoStats changed: extend EmitIoFields (and the schema pin "
                "test) to cover the new counters");
  json->Field("seq_reads", io.seq_reads);
  json->Field("rand_reads", io.rand_reads);
  json->Field("seq_writes", io.seq_writes);
  json->Field("rand_writes", io.rand_writes);
  json->Field("total_seq_io", io.TotalSequential());
  json->Field("total_rand_io", io.TotalRandom());
  json->Field("cache_hits", io.cache_hits);
  json->Field("cache_misses", io.cache_misses);
  json->Field("cache_evictions", io.cache_evictions);
  json->Field("cache_hit_ratio", io.CacheHitRatio());
  // Fault counters (docs/ROBUSTNESS.md); zero on fault-free runs, present
  // always so the schema stays identical across clean and chaos benches.
  json->Field("transient_retries", io.transient_retries);
  json->Field("checksum_failures", io.checksum_failures);
  json->Field("quarantined_pages", io.quarantined_pages);
  json->Field("failovers", io.failovers);
  json->Field("replica_reads_total", io.ReplicaReadsTotal());
}

void EmitOverlayFields(JsonWriter* json, uint64_t sensitive_rows,
                       uint64_t invariant_rows, uint64_t recheck_scans,
                       uint64_t recheck_checks, uint64_t recheck_pair_tests) {
  json->Field("sensitive_rows", sensitive_rows);
  json->Field("invariant_rows", invariant_rows);
  const uint64_t classified = sensitive_rows + invariant_rows;
  json->Field("sensitive_fraction",
              classified == 0 ? 0.0
                              : static_cast<double>(sensitive_rows) /
                                    static_cast<double>(classified));
  json->Field("recheck_scans", recheck_scans);
  json->Field("recheck_checks", recheck_checks);
  json->Field("recheck_pair_tests", recheck_pair_tests);
}

void EmitMessageFields(JsonWriter* json, const MessageStats& messages,
                       const MessageCostModel& net) {
  static_assert(sizeof(MessageStats) == 3 * sizeof(uint64_t),
                "MessageStats changed: extend EmitMessageFields (and the "
                "schema pin test) to cover the new counters");
  json->Field("net_messages", messages.messages);
  json->Field("net_bytes", messages.bytes);
  json->Field("net_rounds", messages.rounds);
  json->Field("net_millis", net.EstimateMillis(messages));
}

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::AddRow(std::vector<std::string> row) {
  NMRS_CHECK_EQ(row.size(), header_.size());
  rows_.push_back(std::move(row));
}

void Table::Print() const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
    }
    std::printf("\n");
  };
  print_row(header_);
  for (size_t c = 0; c < header_.size(); ++c) {
    std::printf("%s  ", std::string(widths[c], '-').c_str());
  }
  std::printf("\n");
  for (const auto& row : rows_) print_row(row);
}

std::string Fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

namespace {
bool count_claim_violated = false;
}  // namespace

void ShapeCheck(const std::string& name, bool ok, const std::string& detail,
                Claim claim) {
  std::printf("SHAPE-CHECK %s: %s (%s)\n", name.c_str(),
              ok ? "OK" : "VIOLATED", detail.c_str());
  if (!ok && claim == Claim::kCount) count_claim_violated = true;
}

int ShapeCheckExitCode() { return count_claim_violated ? 1 : 0; }

void Banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace bench
}  // namespace nmrs
