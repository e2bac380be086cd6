#include "exec/query_engine.h"

#include <algorithm>
#include <mutex>
#include <thread>

#include "common/check.h"
#include "common/sync.h"
#include "common/timer.h"
#include "core/block_rs.h"
#include "core/dominance.h"
#include "core/shard_exchange.h"
#include "data/segment_store.h"
#include "exec/overlay_exec.h"
#include "sim/matrix_overlay.h"

namespace nmrs {

double BatchResult::ModeledMakespanMillis() const {
  double busiest = 0;
  for (size_t s = 0; s < shard_worker_modeled_millis.size(); ++s) {
    const std::vector<double>& lanes = shard_worker_modeled_millis[s];
    double total = 0;
    for (double w : lanes) total += w;
    double ideal =
        lanes.empty() ? 0.0 : total / static_cast<double>(lanes.size());
    if (s < shard_max_task_modeled_millis.size()) {
      ideal = std::max(ideal, shard_max_task_modeled_millis[s]);
    }
    busiest = std::max(busiest, ideal);
  }
  return busiest + ExchangeModeledMillis();
}

double BatchResult::ModeledQps() const {
  const double makespan = ModeledMakespanMillis();
  if (makespan <= 0) return 0;
  return static_cast<double>(results.size()) / (makespan / 1000.0);
}

double OverlayBatchResult::ModeledMakespanMillis() const {
  double overlay = 0;
  for (double w : overlay_worker_modeled_millis) {
    overlay = std::max(overlay, w);
  }
  return base.ModeledMakespanMillis() + overlay;
}

double OverlayBatchResult::ModeledQps() const {
  const double makespan = ModeledMakespanMillis();
  if (makespan <= 0) return 0;
  double answers = 0;
  for (const auto& q : results) answers += static_cast<double>(q.size());
  return answers / (makespan / 1000.0);
}

namespace {

// The algorithms whose scans read through core/block_rs.cc: BRS, and SRS
// over either pre-sort.
bool ReadsThroughBlockScans(Algorithm algo) {
  return algo == Algorithm::kBRS || algo == Algorithm::kSRS ||
         algo == Algorithm::kTileSRS;
}

std::unique_ptr<const ShardedDataset> OneShard(const PreparedDataset& prepared) {
  auto sharded = ShardedDataset::Partition(prepared, ShardPlanOptions{});
  NMRS_CHECK(sharded.ok()) << sharded.status();  // one shard cannot fail
  return std::make_unique<const ShardedDataset>(std::move(*sharded));
}

// Export: collects `rows`' data from `data` into `out` — the payload a
// shard puts on the wire — and charges the scan's worker-wide IO (failover
// reads land on the other replica views) and backoff to `stats`.
Status ExportCandidates(const StoredDataset& data,
                        const ResiliencePolicy& policy,
                        const ExecContext& exec, const ReplicaSet& rset,
                        int worker, const std::vector<RowId>& rows,
                        RowBatch* out, QueryStats* stats) {
  data.disk()->InvalidateArmPosition();
  const IoStats before = rset.WorkerStats(worker);
  PagedReader reader = MakeReader(data.disk(), policy, exec);
  out->Clear();
  Status status = CollectRowsById(data, &reader, rows, out);
  IoStats io = rset.WorkerStats(worker) - before;
  reader.FoldStatsInto(&io);
  stats->io += io;
  stats->modeled_backoff_millis += reader.modeled_backoff_millis();
  return status;
}

// The build budget of an index that must hold its whole shard.
constexpr uint64_t kWholeShard = ~uint64_t{0};

}  // namespace

QueryEngine::QueryEngine(const ShardedDataset& sharded,
                         const SimilaritySpace& space, Algorithm algo,
                         EngineOptions opts)
    : QueryEngine(nullptr, &sharded, space, algo, std::move(opts)) {}

QueryEngine::QueryEngine(const PreparedDataset& prepared,
                         const SimilaritySpace& space, Algorithm algo,
                         EngineOptions opts)
    : QueryEngine(OneShard(prepared), nullptr, space, algo, std::move(opts)) {
}

QueryEngine::QueryEngine(std::unique_ptr<const ShardedDataset> owned,
                         const ShardedDataset* sharded,
                         const SimilaritySpace& space, Algorithm algo,
                         EngineOptions opts)
    : owned_(std::move(owned)),
      sharded_(owned_ != nullptr ? owned_.get() : sharded),
      space_(&space),
      algo_(algo),
      opts_(std::move(opts)),
      pool_(opts_.num_workers > 0
                ? opts_.num_workers
                : std::max(1u, std::thread::hardware_concurrency())) {
  // A checksummed dataset implies verification; every task reads this.
  if (sharded_->base().stored.checksum_pages()) {
    opts_.rs.resilience.checksum_pages = true;
  }
  SimulatedDisk* disk = sharded_->base().stored.disk();
  // Shard files were created by Partition before this constructor ran, so
  // they sit below the ceiling: shard pages fault and fail over exactly
  // like base pages, while per-query scratch spills stay exempt.
  fault_ceiling_ = disk->next_file_id();

  ReplicaSetOptions rso_template;
  rso_template.num_replicas =
      std::clamp(opts_.rs.resilience.replicas, 1,
                 static_cast<int>(IoStats::kMaxReplicas));
  rso_template.num_workers = static_cast<int>(pool_.num_threads());
  if (!opts_.replica_faults.empty()) {
    NMRS_CHECK(opts_.replica_faults.size() ==
               static_cast<size_t>(rso_template.num_replicas))
        << "replica_faults must cover every replica";
    rso_template.faults = opts_.replica_faults;
  } else if (opts_.faults.enabled()) {
    rso_template.faults = {opts_.faults};
  }
  rso_template.replica_fault_seed_base =
      opts_.rs.resilience.replica_fault_seed_base;
  rso_template.fault_ceiling = fault_ceiling_;

  const int num_shards = sharded_->num_shards();
  replica_sets_.reserve(num_shards);
  pool_caches_.resize(num_shards);
  for (int s = 0; s < num_shards; ++s) {
    // One replica set per shard: per-(worker, shard) DiskViews with their
    // own arms and IO ledgers, so a shard's modeled time is what that
    // shard's machine would spend regardless of what other shards do on
    // the same host threads.
    replica_sets_.push_back(
        std::make_unique<ReplicaSet>(disk, rso_template));
    // Fault batches run shared-nothing (see EngineOptions::faults): a
    // shared cache would let one query's faulted fetch leak into another
    // query's reads in a scheduling-dependent way.
    if (opts_.cache_pages > 0 && !replica_sets_[s]->faulted()) {
      BufferPoolOptions pool_opts;
      pool_opts.capacity_pages = opts_.cache_pages;
      pool_caches_[s] = std::make_unique<BufferPool>(disk, pool_opts);
    }
  }
  shard_index_.resize(static_cast<size_t>(num_shards));
  shard_over_budget_.assign(static_cast<size_t>(num_shards), 0);
}

size_t QueryEngine::shard_index_bytes(int s) const {
  std::lock_guard<std::mutex> lock(shard_index_mu_);
  const ALTree* index = shard_index_[static_cast<size_t>(s)].tree.get();
  return index == nullptr ? 0 : index->MemoryBytes();
}

std::vector<int> QueryEngine::ActiveShards() const {
  const int S = sharded_->num_shards();
  std::vector<int> active;
  for (int s = 0; s < S; ++s) {
    if (S == 1 || sharded_->shard_rows(s) > 0) active.push_back(s);
  }
  return active;
}

void QueryEngine::EnsureShardIndexes(
    const std::vector<int>& shards, uint64_t budget_bytes, bool row_leaves,
    QuarantineLog* quarantine,
    const std::function<void(int s, int w, const IoStats& io, double millis)>&
        charge,
    std::vector<ShardTree>* trees, std::vector<Status>* status) {
  std::lock_guard<std::mutex> lock(shard_index_mu_);
  WaitGroup wg;
  for (int s : shards) {
    ShardIndex& slot = shard_index_[s];
    const bool build = slot.tree == nullptr && (*status)[s].ok() &&
                       (budget_bytes == kWholeShard || !shard_over_budget_[s]);
    const bool leaves = row_leaves && slot.row_leaf.empty();
    if (!build && (!leaves || slot.tree == nullptr)) continue;
    wg.Add(1);
    pool_.Submit([&, s, build] {
      const int w = pool_.CurrentWorkerIndex();
      NMRS_CHECK_GE(w, 0);
      Timer timer;
      IoStats io;
      double backoff_millis = 0;
      if (build) {
        // Reads through the worker's clean primary view with no page cache:
        // the build is no query's work, so it neither faults nor warms or
        // evicts any query's cache.
        ReplicaSet& rset = *replica_sets_[s];
        DiskView* view = rset.view(w, 0);
        const StoredDataset& data = sharded_->shard(s);
        const StoredDataset local(view, data.file(), data.schema(),
                                  data.num_rows(), data.checksum_pages());
        view->InvalidateArmPosition();
        const IoStats before = rset.WorkerStats(w);
        ExecContext exec;
        exec.quarantine = quarantine;
        PagedReader reader = MakeReader(view, opts_.rs.resilience, exec);
        auto tree = std::make_unique<ALTree>(data.schema(),
                                             sharded_->base().attr_order);
        StatusOr<bool> fits =
            BuildShardIndexWithin(local, &reader, budget_bytes, tree.get());
        (*status)[s] = fits.status();
        if (fits.ok() && *fits) {
          slot.leaves = BuildLeafTable(*tree);
          slot.tree = std::move(tree);
        }
        if (fits.ok() && !*fits) shard_over_budget_[s] = 1;
        io = rset.WorkerStats(w) - before;
        reader.FoldStatsInto(&io);
        backoff_millis = reader.modeled_backoff_millis();
      }
      if (row_leaves && slot.tree != nullptr) {
        slot.row_leaf = IndexRowLeaves(*slot.tree, slot.leaves);
      }
      charge(s, w, io,
             timer.ElapsedMillis() + IoCostModel{}.EstimateMillis(io) +
                 backoff_millis);
      wg.Done();
    });
  }
  wg.Wait();
  for (int s : shards) {
    (*trees)[s] = {shard_index_[s].tree.get(), &shard_index_[s].leaves,
                   shard_index_[s].row_leaf};
  }
}

StatusOr<BatchResult> QueryEngine::RunBatch(
    const std::vector<Object>& queries) {
  NMRS_RETURN_IF_ERROR(opts_.rs.resilience.Validate());

  const size_t num_queries = queries.size();
  const int S = sharded_->num_shards();
  const Schema& schema = sharded_->base().stored.schema();
  const size_t m = schema.num_attributes();
  const bool numerics = schema.NumNumeric() > 0;
  const size_t row_bytes = sharded_->base().stored.codec().row_bytes();

  // Empty shards have no rows to prune with and no candidates to offer, so
  // they are excluded from scatter, exchange and verify.
  const std::vector<int> active = ActiveShards();

  BatchResult batch;
  batch.net = opts_.net;
  batch.results.resize(num_queries);
  batch.statuses.assign(num_queries, Status::OK());
  batch.breakdown.resize(num_queries);
  for (ShardQueryBreakdown& b : batch.breakdown) {
    b.shard_candidates.assign(static_cast<size_t>(S), 0);
  }
  batch.shard_worker_modeled_millis.assign(
      static_cast<size_t>(S),
      std::vector<double>(pool_.num_threads(), 0.0));
  batch.shard_max_task_modeled_millis.assign(static_cast<size_t>(S), 0.0);

  Timer timer;
  ConcurrentIoStats total_io;
  QuarantineLog quarantine;
  std::mutex max_task_mu;
  // Records one task's modeled cost against its shard's critical-path
  // bound; lane += stays lock-free since each (shard, worker) lane is only
  // touched by its own pool worker.
  auto note_task = [&](size_t s, double modeled) {
    std::lock_guard<std::mutex> lock(max_task_mu);
    double& mx = batch.shard_max_task_modeled_millis[s];
    mx = std::max(mx, modeled);
  };

  // Per-(query, shard) scatter outputs; each slot is touched by exactly one
  // task at a time (scatter and verify of a pair run in separate phases).
  std::vector<std::vector<ReverseSkylineResult>> local(num_queries);
  std::vector<std::vector<Status>> local_status(
      num_queries, std::vector<Status>(static_cast<size_t>(S), Status::OK()));
  // Clean-view recoveries per (query, shard) task.
  std::vector<std::vector<uint64_t>> retries(
      num_queries, std::vector<uint64_t>(static_cast<size_t>(S), 0));
  std::vector<std::vector<RowBatch>> cand;
  cand.reserve(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    local[q].resize(static_cast<size_t>(S));
    cand.emplace_back();
    for (int s = 0; s < S; ++s) cand[q].emplace_back(m, numerics);
  }

  // ---- Segment stores (docs/CACHING.md, "Segment store"): BRS and SRS on
  // the kernel path read every page of a shard through that shard's store,
  // so the batch decodes and transposes each page once, while every read
  // is still charged. The memory is reserved here, on the calling thread,
  // and freed with the batch. A shard whose replicas inject faults gets
  // none, as it gets no page cache. ----
  std::vector<std::unique_ptr<SegmentStore>> segments(static_cast<size_t>(S));
  if (ReadsThroughBlockScans(algo_) && opts_.rs.use_kernels &&
      !queries.empty()) {
    for (int s : active) {
      if (replica_sets_[s]->faulted()) continue;
      const StoredDataset& shard = sharded_->shard(s);
      segments[s] = std::make_unique<SegmentStore>(
          shard.file(), shard.num_pages(), shard.codec());
    }
  }

  // The handles every task of shard s borrows: intra-query threads on the
  // engine's pool, the shard's page cache and segment store, the batch's
  // quarantine log.
  auto make_exec = [&](int s) {
    ExecContext exec;
    exec.executor = &pool_;
    exec.buffer_pool = pool_caches_[s].get();
    exec.segments = segments[s].get();
    exec.quarantine = &quarantine;
    return exec;
  };

  // ---- Shard indexes: a build lands only on the batch total and the
  // shard's lane, so per-query counters do not depend on which batch built
  // it. ----
  WaitGroup wg;
  std::vector<ShardTree> index(static_cast<size_t>(S));
  std::vector<Status> build_status(static_cast<size_t>(S), Status::OK());
  auto charge_build = [&](int s, int w, const IoStats& io, double millis) {
    total_io.Add(io);
    batch.shard_worker_modeled_millis[s][static_cast<size_t>(w)] += millis;
    note_task(static_cast<size_t>(s), millis);
  };

  // ---- Resident TRS: a shard whose tree fits the memory budget is one
  // phase-1 batch, so LoadTreeBatch would hold all of it and phase 1's
  // survivors are its answer (ResidentReverseSkyline). The tree is built
  // under the budget, so a shard that misses it costs one phase-1 batch of
  // pages, once, and keeps no tree for the scatter. Every such shard, or
  // one whose build failed, runs TRS per query; a verify tree built later
  // does not change that. A budget under 2 pages or a foreign overlay
  // leaves every shard to the per-query run, which rejects it. ----
  std::vector<uint8_t> resident(static_cast<size_t>(S), 0);
  const RSOptions& rs = opts_.rs;
  if ((algo_ == Algorithm::kTRS || algo_ == Algorithm::kTileTRS) &&
      !queries.empty() && rs.memory.pages >= 2 &&
      (rs.overlay == nullptr || &rs.overlay->base() == space_)) {
    const uint64_t budget = rs.memory.Bytes(
        sharded_->base().stored.disk()->page_size());
    EnsureShardIndexes(active, budget, /*row_leaves=*/false, &quarantine,
                       charge_build, &index, &build_status);
    for (int s : active) {
      resident[s] = index[s].tree != nullptr &&
                    index[s].tree->LogicalMemoryBytes() < budget;
    }
  }

  // ---- Scatter: every (query, active shard) runs the full algorithm over
  // the shard's local rows, then serializes its surviving candidates for
  // the exchange. ----
  wg.Add(static_cast<int>(num_queries * active.size()));
  for (size_t q = 0; q < num_queries; ++q) {
    for (int s : active) {
      pool_.Submit([&, q, s] {
        const int w = pool_.CurrentWorkerIndex();
        NMRS_CHECK_GE(w, 0);
        if (resident[s]) {
          // Reads no page, so it cannot fault: no attempts, no export
          // scan — the candidates leave straight from the tree.
          local[q][s] = ResidentReverseSkyline(
              *index[s].tree, *index[s].leaves, *space_, queries[q],
              opts_.rs, make_exec(s), S > 1 ? &cand[q][s] : nullptr);
          const double modeled = local[q][s].stats.ResponseMillis();
          batch.shard_worker_modeled_millis[s][static_cast<size_t>(w)] +=
              modeled;
          note_task(s, modeled);
          wg.Done();
          return;
        }
        ReplicaSet& rset = *replica_sets_[s];
        const StoredDataset& shard = sharded_->shard(s);
        // Attempt 0 reads through the task's own FaultyDisk per replica,
        // under stream Stream(q, s), so its fault pattern is fixed by the
        // config, not by which worker runs it; the fault ceiling
        // restricts injection to the frozen base and shard files, since
        // scratch-file ids are assigned in execution order. The other
        // replicas are attached to `exec` for failover; their views
        // persist across the worker's tasks, and resetting their arms
        // makes the task's seq/rand IO split independent of what ran
        // before it. Retries re-run on the worker's clean view with no
        // failover disks (the clean view cannot fail), and a success
        // after attempt 0 counts one recovery.
        std::vector<std::unique_ptr<FaultyDisk>> wrappers;
        const std::vector<SimulatedDisk*> disks =
            rset.MakeQueryDisks(w, Stream(q, s), &wrappers);
        for (int r = 1; r < rset.num_replicas(); ++r) {
          rset.view(w, r)->InvalidateArmPosition();
        }
        ExecContext exec = make_exec(s);
        if (rset.num_replicas() > 1) {
          exec.failover_disks.assign(disks.begin() + 1, disks.end());
          exec.failover_limit = fault_ceiling_;
        }
        const int attempts = 1 + std::max(0, opts_.max_query_retries);
        Status status;
        for (int a = 0; a < attempts; ++a) {
          if (a == 1) {
            exec.failover_disks.clear();
            exec.failover_limit = PagedReaderOptions::kNoFailoverLimit;
          }
          SimulatedDisk* disk = a == 0 ? disks[0] : rset.view(w, 0);
          PreparedDataset shard_prep{
              StoredDataset(disk, shard.file(), shard.schema(),
                            shard.num_rows(), shard.checksum_pages()),
              sharded_->base().attr_order,
              sharded_->base().prepare_millis};
          const IoStats before = rset.WorkerStats(w);
          StatusOr<ReverseSkylineResult> result = RunReverseSkyline(
              shard_prep, *space_, queries[q], algo_, opts_.rs, exec);
          if (result.ok() && S > 1) {
            // Export through the same (possibly faulty, failover-backed)
            // disk: a real shard re-reads rows to serialize them, and may
            // fail doing so, which counts as a failed attempt like any
            // other.
            Status cs = ExportCandidates(shard_prep.stored,
                                         opts_.rs.resilience, exec, rset,
                                         w, result->rows, &cand[q][s],
                                         &result->stats);
            if (!cs.ok()) result = cs;
          }
          if (result.ok()) {
            local[q][s] = std::move(*result);
            if (a > 0) ++retries[q][s];
            status = Status::OK();
            break;
          }
          // Keep the dead run's partial IO (worker-wide: failover reads
          // land on the other replica views). A successful later attempt
          // overwrites it, so a recovered task reports the stats of the
          // run that produced its answer.
          ReverseSkylineResult partial;
          partial.stats.io = rset.WorkerStats(w) - before;
          local[q][s] = std::move(partial);
          status = result.status();
          if (!status.IsStorageFault()) break;
        }
        if (!status.ok()) local_status[q][s] = status;
        total_io.Add(local[q][s].stats.io);
        batch.shard_worker_modeled_millis[s][static_cast<size_t>(w)] +=
            local[q][s].stats.ResponseMillis();
        note_task(s, local[q][s].stats.ResponseMillis());
        wg.Done();
      });
    }
  }
  wg.Wait();

  batch.shard_segments_built.assign(static_cast<size_t>(S), 0);
  for (int s : active) {
    if (segments[s] != nullptr) {
      batch.shard_segments_built[s] = segments[s]->segments_built();
    }
  }

  // ---- Exchange bookkeeping (coordinator): fold shard failures into
  // per-query statuses, record candidate counts, and account the message
  // traffic of the three exchange rounds. ----
  const bool exchange = S > 1 && active.size() >= 2;
  std::vector<std::vector<uint64_t>> foreign_count(
      num_queries, std::vector<uint64_t>(static_cast<size_t>(S), 0));
  for (size_t q = 0; q < num_queries; ++q) {
    for (int s : active) {
      if (!local_status[q][s].ok() && batch.statuses[q].ok()) {
        batch.statuses[q] = local_status[q][s];
      }
      batch.breakdown[q].shard_candidates[s] = local[q][s].rows.size();
    }
    if (!exchange || !batch.statuses[q].ok()) continue;
    uint64_t total_bytes = 0;
    uint64_t total_count = 0;
    for (int s : active) {
      total_bytes += cand[q][s].size() * row_bytes;
      total_count += cand[q][s].size();
    }
    MessageStats& msg = batch.breakdown[q].messages;
    // Round 1 — candidate gather: every shard ships its local skyline.
    msg.messages += active.size();
    msg.bytes += total_bytes;
    msg.rounds += 1;
    // Round 2 — broadcast: each shard receives the other shards' rows.
    for (int s : active) {
      msg.messages += 1;
      msg.bytes += total_bytes - cand[q][s].size() * row_bytes;
      foreign_count[q][s] = total_count - cand[q][s].size();
    }
    msg.rounds += 1;
    // Round 3 — verdict gather: one bit per foreign candidate per shard.
    for (int s : active) {
      msg.messages += 1;
      msg.bytes += (foreign_count[q][s] + 7) / 8;
    }
    msg.rounds += 1;
  }

  // ---- Index: every shard the verify round below reads needs its tree.
  // The queries that needed a failed build fail with its status. ----
  if (exchange) {
    std::vector<int> needed;
    for (int s : active) {
      for (size_t q = 0; q < num_queries; ++q) {
        if (batch.statuses[q].ok() && foreign_count[q][s] > 0) {
          needed.push_back(s);
          break;
        }
      }
    }
    EnsureShardIndexes(needed, kWholeShard, /*row_leaves=*/false,
                       &quarantine, charge_build, &index, &build_status);
  }

  // ---- Verify: each shard tests the foreign candidates against all its
  // local rows, one index search per candidate; pruned verdicts come back
  // positionally. The searches read no pages, so nothing faults or
  // retries. ----
  std::vector<std::vector<std::vector<uint8_t>>> verdicts(
      num_queries,
      std::vector<std::vector<uint8_t>>(static_cast<size_t>(S)));
  std::vector<std::vector<QueryStats>> verify_stats(
      num_queries, std::vector<QueryStats>(static_cast<size_t>(S)));
  if (exchange) {
    for (size_t q = 0; q < num_queries; ++q) {
      if (!batch.statuses[q].ok()) continue;
      for (int s : active) {
        if (foreign_count[q][s] == 0) continue;
        if (index[s].tree == nullptr) {
          local_status[q][s] = build_status[s];
          continue;
        }
        wg.Add(1);
        pool_.Submit([&, q, s] {
          const int w = pool_.CurrentWorkerIndex();
          NMRS_CHECK_GE(w, 0);

          // The merged broadcast, minus this shard's own candidates (it
          // already refined those in its local phase 2), concatenated in
          // shard order — the positional contract of the verdict bitmap.
          RowBatch foreign(m, numerics);
          for (int t : active) {
            if (t == s) continue;
            const RowBatch& c = cand[q][t];
            for (size_t i = 0; i < c.size(); ++i) {
              foreign.Append(c.id(i), c.row_values(i), c.row_numerics(i));
            }
          }

          QueryStats& vs = verify_stats[q][s];
          Timer verify_timer;
          PruneCandidatesWithIndex(*index[s].tree, *space_, queries[q], foreign,
                                   opts_.rs, &verdicts[q][s], &vs);
          vs.phase2_checks = vs.checks;
          vs.compute_millis = verify_timer.ElapsedMillis();
          vs.phase2_millis = vs.compute_millis;
          batch.shard_worker_modeled_millis[s][static_cast<size_t>(w)] +=
              vs.ResponseMillis();
          note_task(s, vs.ResponseMillis());
          wg.Done();
        });
      }
    }
    wg.Wait();
  }

  // ---- Merge: a candidate is in the reverse skyline iff it survived its
  // home shard AND no other shard's verdict pruned it. Rows come out
  // sorted ascending, exactly as every single-shard algorithm emits them.
  // ----
  for (size_t q = 0; q < num_queries; ++q) {
    // Failed index builds surface after the exchange loop above.
    for (int s : active) {
      if (!local_status[q][s].ok() && batch.statuses[q].ok()) {
        batch.statuses[q] = local_status[q][s];
      }
    }
    QueryStats merged;
    for (int s : active) merged.MergeFrom(local[q][s].stats);
    if (exchange) {
      for (int s : active) merged.MergeFrom(verify_stats[q][s]);
    }

    if (!batch.statuses[q].ok()) {
      batch.results[q] = ReverseSkylineResult{};
      batch.results[q].stats = merged;
      continue;
    }

    if (!exchange) {
      // One (possibly the only active) shard holds the whole answer.
      NMRS_CHECK_LE(active.size(), 1u);
      if (!active.empty()) {
        batch.results[q] = std::move(local[q][active[0]]);
      }
      continue;
    }

    std::vector<RowId> rows;
    for (int s : active) {
      const RowBatch& own = cand[q][s];
      for (size_t i = 0; i < own.size(); ++i) {
        bool alive = true;
        for (int t : active) {
          if (t == s) continue;
          // Position of (s, i) in t's foreign concat: candidates of shards
          // before s (skipping t itself), then i.
          size_t offset = 0;
          for (int u : active) {
            if (u == s) break;
            if (u == t) continue;
            offset += cand[q][u].size();
          }
          if (verdicts[q][t][offset + i] != 0) {
            alive = false;
            break;
          }
        }
        if (alive) rows.push_back(own.id(i));
      }
    }
    std::sort(rows.begin(), rows.end());
    merged.result_size = rows.size();
    batch.results[q].rows = std::move(rows);
    batch.results[q].stats = merged;
  }

  for (const ShardQueryBreakdown& b : batch.breakdown) {
    batch.total_messages += b.messages;
  }

  if (opts_.fail_fast) {
    Status first = batch.first_error();
    if (!first.ok()) return first;
  }
  batch.total_io = total_io.Snapshot();
  batch.wall_millis = timer.ElapsedMillis();
  for (const std::vector<uint64_t>& per_shard : retries) {
    uint64_t tasks = 0;
    for (uint64_t r : per_shard) tasks += r;
    batch.tasks_retried += tasks;
    batch.queries_retried += tasks > 0 ? 1 : 0;
  }
  batch.quarantined = quarantine.Pages();
  return batch;
}

StatusOr<OverlayBatchResult> QueryEngine::RunOverlayBatch(
    const std::vector<Object>& queries,
    const std::vector<const MatrixOverlay*>& overlays) {
  NMRS_RETURN_IF_ERROR(ValidateOverlayUsers(opts_.rs, overlays, *space_));

  Timer timer;
  OverlayBatchResult out;
  out.results.resize(queries.size());
  for (auto& per_user : out.results) per_user.resize(overlays.size());
  out.statuses.assign(queries.size(), Status::OK());
  out.overlay_worker_modeled_millis.assign(pool_.num_threads(), 0.0);

  // Classification scans the whole BASE file, not the shards, through
  // shard 0's replica set (its views see the same disk).
  const StoredDataset& base_data = sharded_->base().stored;
  OverlayExecContext ctx;
  ctx.pool = &pool_;
  ctx.replicas = replica_sets_[0].get();
  ctx.data = &base_data;
  ctx.space = space_;
  ctx.selected =
      ResolveSelectedAttrs(base_data.schema(), opts_.rs.selected_attrs);
  ctx.resilience = opts_.rs.resilience;

  // ---- 1. Query-independent classification, once per batch. ----
  OverlayClassification cls;
  NMRS_RETURN_IF_ERROR(ClassifyOverlayRows(ctx, overlays, &cls));
  out.sensitive_rows = cls.TotalSensitive();
  out.invariant_rows = cls.TotalInvariant();
  out.overlay_worker_modeled_millis[0] +=
      cls.classify_millis + IoCostModel{}.EstimateMillis(cls.io);

  // ---- 2. One base run per query, through the full machinery. ----
  NMRS_ASSIGN_OR_RETURN(out.base, RunBatch(queries));
  out.statuses = out.base.statuses;

  // ---- 3. Pruner hints, then hinted re-checks per (query, user group),
  // from every active shard's whole index. What this batch builds lands
  // only on its overlay totals; a failed build fails every query. ----
  const std::vector<int> active = ActiveShards();
  std::vector<ShardTree> index(sharded_->num_shards());
  std::vector<Status> build_status(sharded_->num_shards(), Status::OK());
  ConcurrentIoStats index_io;
  EnsureShardIndexes(
      active, kWholeShard, /*row_leaves=*/true, /*quarantine=*/nullptr,
      [&](int, int w, const IoStats& io, double millis) {
        index_io.Add(io);
        out.overlay_worker_modeled_millis[static_cast<size_t>(w)] += millis;
      },
      &index, &build_status);
  for (int s : active) {
    if (index[s].tree == nullptr) {
      for (Status& st : out.statuses) {
        if (st.ok()) st = build_status[s];
      }
      break;
    }
    ctx.indexes.push_back(index[s]);
  }

  OverlayRecheckTotals recheck;
  if (ctx.indexes.size() == active.size()) {
    RecheckOverlayBatch(ctx, queries, overlays, cls, out.base.results,
                        &out.results, out.statuses,
                        &out.overlay_worker_modeled_millis, &recheck);
  }

  out.recheck_scans = recheck.scans;
  out.recheck_checks = recheck.checks;
  out.recheck_pair_tests = recheck.pair_tests;
  out.overlay_io = cls.io;
  out.overlay_io += index_io.Snapshot();
  out.total_io = out.base.total_io;
  out.total_io += out.overlay_io;
  out.wall_millis = timer.ElapsedMillis();
  return out;
}

}  // namespace nmrs
