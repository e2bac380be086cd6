#include "db/database.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>

#include "common/timer.h"
#include "order/zorder.h"

namespace nmrs {

namespace {

// keys[q] = stable keys of results[q].rows.
std::vector<std::vector<uint64_t>> TranslateKeys(
    const std::vector<ReverseSkylineResult>& results,
    const std::vector<uint64_t>& row_keys) {
  std::vector<std::vector<uint64_t>> keys(results.size());
  for (size_t q = 0; q < results.size(); ++q) {
    keys[q].reserve(results[q].rows.size());
    for (RowId r : results[q].rows) keys[q].push_back(row_keys[r]);
  }
  return keys;
}

// Set bits of a word. Without -mpopcnt std::popcount is a libgcc call;
// this SWAR sum stays inline.
inline uint64_t PopCount(uint64_t x) {
  x = x - ((x >> 1) & 0x5555555555555555ull);
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return (x * 0x0101010101010101ull) >> 56;
}

// The deleted rows of a base generation as a rank bitmap: one bit per row
// plus the count of set bits below each 64-bit word. A surviving row's
// merged RowId is its old id minus Rank(old id), found with no search, and
// the whole structure is n/8 + n/16 bytes, small enough to stay in cache.
// The per-word counts are 32-bit: a delta log holds far fewer deletes.
class DeletedRows {
 public:
  explicit DeletedRows(uint64_t rows)
      : rows_(rows), bits_((rows + 63) / 64, 0), below_(bits_.size(), 0) {}

  // Marks `row` deleted; false if it already was.
  bool Insert(RowId row) {
    uint64_t& word = bits_[row >> 6];
    const uint64_t bit = uint64_t{1} << (row & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  }

  // Fills the per-word counts; call once, after the last Insert.
  void IndexRanks() {
    uint64_t total = 0;
    for (size_t w = 0; w < bits_.size(); ++w) {
      below_[w] = static_cast<uint32_t>(total);
      total += PopCount(bits_[w]);
    }
    count_ = total;
  }

  uint64_t count() const { return count_; }

  bool Contains(RowId row) const {
    return ((bits_[row >> 6] >> (row & 63)) & 1) != 0;
  }

  // Calls kept(lo, hi) for each maximal range [lo, hi) of rows that are
  // not deleted, in ascending order.
  template <typename Fn>
  void ForEachKeptRange(Fn kept) const {
    RowId lo = 0;
    for (size_t w = 0; w < bits_.size(); ++w) {
      for (uint64_t word = bits_[w]; word != 0; word &= word - 1) {
        const RowId row = w * 64 + static_cast<RowId>(__builtin_ctzll(word));
        if (lo < row) kept(lo, row);
        lo = row + 1;
      }
    }
    if (lo < rows_) kept(lo, rows_);
  }

  // Deleted rows with a smaller id than `row`.
  uint64_t Rank(RowId row) const {
    const uint64_t below_in_word =
        bits_[row >> 6] & ((uint64_t{1} << (row & 63)) - 1);
    return below_[row >> 6] + PopCount(below_in_word);
  }

 private:
  uint64_t rows_;
  std::vector<uint64_t> bits_;
  std::vector<uint32_t> below_;
  uint64_t count_ = 0;
};

Status ValidateQueries(const std::vector<Object>& queries, size_t m) {
  for (size_t q = 0; q < queries.size(); ++q) {
    if (queries[q].values.size() != m) {
      return Status::InvalidArgument(
          "query " + std::to_string(q) + " has " +
          std::to_string(queries[q].values.size()) + " attributes, schema has " +
          std::to_string(m));
    }
  }
  return Status::OK();
}

}  // namespace

std::vector<uint64_t> Snapshot::KeysOf(const std::vector<RowId>& rows) const {
  std::vector<uint64_t> out;
  out.reserve(rows.size());
  for (RowId r : rows) out.push_back(state_->keys[r]);
  return out;
}

StatusOr<DbBatchResult> Snapshot::RunBatch(
    const std::vector<Object>& queries) const {
  if (state_ == nullptr) {
    return Status::FailedPrecondition("RunBatch on a default-constructed Snapshot");
  }
  NMRS_RETURN_IF_ERROR(ValidateQueries(
      queries, state_->prepared->stored.schema().num_attributes()));
  DbBatchResult out;
  {
    std::scoped_lock run_lock(state_->run_mu);
    NMRS_ASSIGN_OR_RETURN(BatchResult b, state_->engine->RunBatch(queries));
    (state_->engine->num_shards() == 1 ? out.plain : out.sharded) =
        std::move(b);
  }
  out.keys = TranslateKeys(out.results(), state_->keys);
  out.snapshot_generation = state_->generation;
  out.snapshot_version = state_->version;
  out.snapshot_rows = state_->prepared->stored.num_rows();
  return out;
}

StatusOr<DbOverlayBatchResult> Snapshot::RunOverlayBatch(
    const std::vector<Object>& queries,
    const std::vector<const MatrixOverlay*>& overlays) const {
  if (state_ == nullptr) {
    return Status::FailedPrecondition(
        "RunOverlayBatch on a default-constructed Snapshot");
  }
  NMRS_RETURN_IF_ERROR(ValidateQueries(
      queries, state_->prepared->stored.schema().num_attributes()));
  DbOverlayBatchResult out;
  {
    std::scoped_lock run_lock(state_->run_mu);
    NMRS_ASSIGN_OR_RETURN(OverlayBatchResult b,
                          state_->engine->RunOverlayBatch(queries, overlays));
    (state_->engine->num_shards() == 1 ? out.plain : out.sharded) =
        std::move(b);
  }
  out.snapshot_generation = state_->generation;
  out.snapshot_version = state_->version;
  return out;
}

StatusOr<DbQueryResult> Snapshot::Query(const Object& query) const {
  NMRS_ASSIGN_OR_RETURN(DbBatchResult batch, RunBatch({query}));
  NMRS_RETURN_IF_ERROR(batch.first_error());
  DbQueryResult out;
  out.result = batch.results()[0];
  out.keys = std::move(batch.keys[0]);
  out.snapshot_generation = batch.snapshot_generation;
  out.snapshot_version = batch.snapshot_version;
  return out;
}

Database::Database(const SimilaritySpace& space, DatabaseOptions opts,
                   Schema schema)
    : space_(&space),
      opts_(std::move(opts)),
      schema_(std::move(schema)),
      template_(schema_),
      wal_disk_(std::make_shared<SimulatedDisk>()),
      wal_(std::make_unique<WalWriter>(wal_disk_.get(), opts_.name + ".wal")) {}

StatusOr<std::unique_ptr<Database>> Database::Open(const Dataset& base,
                                                   const SimilaritySpace& space,
                                                   DatabaseOptions opts) {
  NMRS_RETURN_IF_ERROR(base.schema().Validate());
  NMRS_RETURN_IF_ERROR(base.Validate());
  if (opts.num_shards < 1) {
    return Status::InvalidArgument("DatabaseOptions::num_shards must be >= 1");
  }
  std::unique_ptr<Database> db(
      new Database(space, std::move(opts), base.schema()));
  NMRS_RETURN_IF_ERROR(db->InitGen0(base));
  return db;
}

Status Database::InitGen0(const Dataset& base) {
  auto st = std::make_shared<State>();
  st->disk = std::make_shared<SimulatedDisk>();
  NMRS_ASSIGN_OR_RETURN(
      PreparedDataset prep,
      PrepareDataset(st->disk.get(), base, opts_.algo, opts_.prepare,
                     opts_.name + ".gen0"));
  // Pin the resolved ordering: every later generation and every
  // incremental merge must agree with generation 0 on it.
  opts_.prepare.attr_order = prep.attr_order;
  st->build_millis = prep.prepare_millis;
  st->prepared = std::make_unique<PreparedDataset>(std::move(prep));
  st->build_io = st->disk->stats();

  const uint64_t n = base.num_rows();
  st->keys.resize(n);
  std::iota(st->keys.begin(), st->keys.end(), 0);
  NMRS_RETURN_IF_ERROR(BuildEngine(st.get()));

  gen_ = std::move(st);
  delta_ = std::make_shared<DeltaSegment>(schema_);
  live_.reserve(n);
  for (RowId r = 0; r < n; ++r) {
    live_.emplace(r, RowLocation{false, r});
  }
  next_key_ = n;
  return Status::OK();
}

Status Database::BuildEngine(State* st) {
  ShardPlanOptions plan = opts_.shard_plan;
  plan.num_shards = opts_.num_shards;
  NMRS_ASSIGN_OR_RETURN(ShardedDataset sharded,
                        ShardedDataset::Partition(*st->prepared, plan));
  st->sharded = std::make_unique<ShardedDataset>(std::move(sharded));
  st->engine = std::make_unique<QueryEngine>(*st->sharded, *space_,
                                             opts_.algo, opts_.engine);
  return Status::OK();
}

uint64_t Database::num_rows() const {
  std::scoped_lock lock(mu_);
  return live_.size();
}

uint64_t Database::num_base_rows() const {
  std::scoped_lock lock(mu_);
  return gen_->prepared->stored.num_rows();
}

uint64_t Database::generation() const {
  std::scoped_lock lock(mu_);
  return gen_counter_;
}

DeltaVersion Database::delta_version() const {
  std::scoped_lock lock(mu_);
  return delta_->version();
}

bool Database::Contains(uint64_t key) const {
  std::scoped_lock lock(mu_);
  return live_.count(key) > 0;
}

DbStats Database::stats() const {
  std::scoped_lock lock(mu_);
  return stats_;
}

Object Database::MakeObject(const std::vector<ValueId>& values,
                            const std::vector<double>& numerics) const {
  return template_.MakeObject(
      values, schema_.NumNumeric() > 0
                  ? numerics
                  : std::vector<double>(schema_.num_attributes(), 0.0));
}

StatusOr<uint64_t> Database::Insert(const std::vector<ValueId>& values,
                                    const std::vector<double>& numerics) {
  const size_t m = schema_.num_attributes();
  if (values.size() != m) {
    return Status::InvalidArgument("Insert row has " +
                                   std::to_string(values.size()) +
                                   " values, schema has " + std::to_string(m));
  }
  if (schema_.NumNumeric() > 0 && numerics.size() != m) {
    return Status::InvalidArgument(
        "Insert row needs " + std::to_string(m) +
        " numerics (schema has numeric attributes), got " +
        std::to_string(numerics.size()));
  }
  Object obj = MakeObject(values, numerics);
  for (AttrId a = 0; a < m; ++a) {
    const AttributeInfo& info = schema_.attribute(a);
    if (info.is_numeric && !info.range.Contains(obj.numerics[a])) {
      return Status::InvalidArgument(
          "Insert numeric value " + std::to_string(obj.numerics[a]) +
          " of attribute " + std::to_string(a) + " is outside its range [" +
          std::to_string(info.range.lo) + ", " +
          std::to_string(info.range.hi) + "]");
    }
    if (obj.values[a] >= schema_.attribute(a).cardinality) {
      return Status::InvalidArgument(
          "Insert value " + std::to_string(obj.values[a]) + " of attribute " +
          std::to_string(a) + " is outside cardinality " +
          std::to_string(schema_.attribute(a).cardinality) +
          " (grow the space first: SimilaritySpace::AppendCategoricalValue)");
    }
  }
  return ApplyInsert(kInvalidRowId, std::move(obj.values),
                     schema_.NumNumeric() > 0 ? std::move(obj.numerics)
                                              : std::vector<double>{});
}

StatusOr<uint64_t> Database::ApplyInsert(uint64_t key,
                                         std::vector<ValueId> values,
                                         std::vector<double> numerics) {
  std::scoped_lock lock(mu_);
  if (delta_->version().total() >= opts_.max_delta_mutations) {
    return Status::ResourceExhausted(
        "delta segment holds " + std::to_string(delta_->version().total()) +
        " mutations (max_delta_mutations); Compact() and retry");
  }
  if (key == kInvalidRowId) key = next_key_++;
  if (live_.count(key) > 0) {
    return Status::Corruption("insert of key " + std::to_string(key) +
                              " which is already live");
  }
  WalRecord rec;
  rec.type = WalRecord::Type::kInsert;
  rec.key = key;
  rec.values = std::move(values);
  rec.numerics = std::move(numerics);
  NMRS_RETURN_IF_ERROR(wal_->Append(rec));
  const uint64_t rank = delta_->AppendInsert(
      key, rec.values.data(), rec.numerics.empty() ? nullptr : rec.numerics.data());
  live_[key] = RowLocation{true, rank};
  next_key_ = std::max(next_key_, key + 1);
  ++stats_.inserts;
  ++stats_.wal_records;
  return key;
}

Status Database::Delete(uint64_t key) {
  std::scoped_lock lock(mu_);
  auto it = live_.find(key);
  if (it == live_.end()) {
    return Status::NotFound("key " + std::to_string(key) + " is not live");
  }
  if (delta_->version().total() >= opts_.max_delta_mutations) {
    return Status::ResourceExhausted(
        "delta segment holds " + std::to_string(delta_->version().total()) +
        " mutations (max_delta_mutations); Compact() and retry");
  }
  WalRecord rec;
  rec.type = WalRecord::Type::kDelete;
  rec.key = key;
  NMRS_RETURN_IF_ERROR(wal_->Append(rec));
  delta_->AppendDelete(key, it->second);
  live_.erase(it);
  ++stats_.deletes;
  ++stats_.wal_records;
  return Status::OK();
}

StatusOr<std::shared_ptr<Database::State>> Database::Materialize(
    const State& gen, const DeltaSegment& delta, DeltaVersion v,
    uint64_t generation_label, DeltaVersion version_label,
    const std::string& file_label) {
  Timer timer;
  const StoredDataset& stored = gen.prepared->stored;
  const uint64_t base_rows = stored.num_rows();
  const size_t m = schema_.num_attributes();
  const bool checksum = stored.checksum_pages();
  const std::vector<AttrId>& attr_order = gen.prepared->attr_order;

  // Resolve the delta prefix. Every delete carries the row Delete found
  // for its key, so this is one pass over the delete log.
  std::vector<char> dead(v.inserts, 0);
  DeletedRows deleted(base_rows);
  for (uint64_t d = 0; d < v.deletes; ++d) {
    const RowLocation target = delta.DeleteTarget(d);
    const bool live = target.in_delta
                          ? target.index < v.inserts && !dead[target.index]
                          : target.index < base_rows &&
                                deleted.Insert(target.index);
    if (!live) {
      return Status::Internal("delta delete " + std::to_string(d) +
                              " names no live row (key " +
                              std::to_string(delta.DeleteKey(d)) + ")");
    }
    if (target.in_delta) dead[target.index] = 1;
  }
  deleted.IndexRanks();
  const uint64_t base_live = base_rows - deleted.count();

  // New RowIds of base rows keep their order, so the new key array is the
  // generation's with the deleted entries dropped, followed by the live
  // inserts, which get RowIds base_live.. in *insert order* — exactly the
  // ids they would get appended to a re-built merged Dataset.
  auto st = std::make_shared<State>();
  st->generation = generation_label;
  st->version = version_label;
  st->keys.reserve(base_live + v.inserts);
  deleted.ForEachKeptRange([&](RowId lo, RowId hi) {
    st->keys.insert(st->keys.end(),
                    gen.keys.begin() + static_cast<std::ptrdiff_t>(lo),
                    gen.keys.begin() + static_cast<std::ptrdiff_t>(hi));
  });
  // The live inserts are then ordered for the stream merge the way the
  // full re-sort would order them (naive/BRS keep append order; id
  // tie-breaks equal insert-rank tie-breaks because the id assignment is
  // monotone in rank).
  struct DeltaRow {
    uint64_t rank;
    RowId new_id;
    uint64_t zkey;
    const ValueId* values;
  };
  std::vector<DeltaRow> drows;
  drows.reserve(v.inserts);
  for (uint64_t i = 0; i < v.inserts; ++i) {
    if (dead[i]) continue;
    drows.push_back(DeltaRow{i, static_cast<RowId>(st->keys.size()), 0,
                             delta.InsertValues(i)});
    st->keys.push_back(delta.InsertKey(i));
  }
  const uint64_t total_rows = st->keys.size();

  const bool tiled =
      opts_.algo == Algorithm::kTileSRS || opts_.algo == Algorithm::kTileTRS;
  const bool ordered = tiled || opts_.algo == Algorithm::kSRS ||
                       opts_.algo == Algorithm::kTRS;
  std::optional<TileZCoder> coder;
  if (tiled) {
    coder.emplace(schema_, attr_order, opts_.prepare.tiles_per_dim);
    for (DeltaRow& dr : drows) dr.zkey = coder->Key(dr.values);
  }
  auto lex = [&attr_order](const ValueId* a, const ValueId* b) -> int {
    for (AttrId attr : attr_order) {
      if (a[attr] != b[attr]) return a[attr] < b[attr] ? -1 : 1;
    }
    return 0;
  };
  if (ordered) {
    std::sort(drows.begin(), drows.end(),
              [&](const DeltaRow& x, const DeltaRow& y) {
                if (tiled && x.zkey != y.zkey) return x.zkey < y.zkey;
                const int c = lex(x.values, y.values);
                if (c != 0) return c < 0;
                return x.rank < y.rank;
              });
  }

  st->disk = std::make_shared<SimulatedDisk>(stored.disk()->page_size());
  const FileId file = st->disk->CreateFile(file_label);
  RowWriter writer(st->disk.get(), file, schema_, checksum);

  size_t di = 0;
  auto emit_delta = [&]() -> Status {
    const DeltaRow& dr = drows[di++];
    return writer.Add(dr.new_id, dr.values, delta.InsertNumerics(dr.rank));
  };
  // Strictly-before: on a full key tie the base row wins, because its
  // merged RowId is < base_live <= every delta RowId.
  auto delta_before = [&](const ValueId* bv, uint64_t bz) -> bool {
    if (di >= drows.size()) return false;
    const DeltaRow& dr = drows[di];
    if (tiled && dr.zkey != bz) return dr.zkey < bz;
    return lex(dr.values, bv) < 0;
  };

  // Stream the frozen generation (zero-copy page peeks — safe concurrently
  // with query readers) and 2-way merge with the sorted delta: one run from
  // disk, one from memory, in the external-sort idiom. The base stream is
  // sorted by (sort key, old id); dropping deleted rows and renumbering
  // preserves that order because old id -> new id is monotone, so the merge
  // output equals a full re-sort of the merged dataset, byte for byte. A
  // surviving base row moves as bytes: only its id is rewritten.
  const RowCodec& codec = stored.codec();
  std::vector<ValueId> bv(m);  // value ids of the base row being merged
  const uint64_t num_pages = stored.num_pages();
  for (PageId p = 0; p < num_pages; ++p) {
    const Page* pg = stored.disk()->PeekPage(stored.file(), p);
    if (pg == nullptr) {
      return Status::Internal("generation page " + std::to_string(p) +
                              " vanished during materialization");
    }
    if (checksum && !pg->VerifySeal()) {
      return Status::Corruption(
          "generation file " + stored.disk()->FileName(stored.file()) +
          " page " + std::to_string(p) +
          " failed checksum verification during materialization");
    }
    const uint32_t count = codec.GetRowCount(*pg);
    if (count > codec.rows_per_page()) {
      return Status::Corruption("generation page " + std::to_string(p) +
                                " claims " + std::to_string(count) + " rows");
    }
    for (uint32_t i = 0; i < count; ++i) {
      const uint8_t* row = codec.RowBytes(*pg, i);
      RowId old_id = 0;
      std::memcpy(&old_id, row, sizeof(old_id));
      if (old_id >= base_rows) {
        return Status::Corruption("generation page " + std::to_string(p) +
                                  " holds row id " + std::to_string(old_id) +
                                  " of " + std::to_string(base_rows));
      }
      if (deleted.Contains(old_id)) continue;
      if (ordered && di < drows.size()) {
        std::memcpy(bv.data(), row + sizeof(RowId), m * sizeof(ValueId));
        const uint64_t bz = tiled ? coder->Key(bv.data()) : 0;
        while (delta_before(bv.data(), bz)) {
          NMRS_RETURN_IF_ERROR(emit_delta());
        }
      }
      NMRS_RETURN_IF_ERROR(
          writer.AddEncoded(old_id - deleted.Rank(old_id), row));
    }
  }
  while (di < drows.size()) {
    NMRS_RETURN_IF_ERROR(emit_delta());
  }
  NMRS_RETURN_IF_ERROR(writer.Finish());
  if (writer.rows_written() != total_rows) {
    return Status::Internal(
        "materialization wrote " + std::to_string(writer.rows_written()) +
        " rows, expected " + std::to_string(total_rows));
  }

  st->prepared = std::make_unique<PreparedDataset>(PreparedDataset{
      StoredDataset(st->disk.get(), file, schema_, total_rows, checksum),
      attr_order, 0.0});
  st->build_io = st->disk->stats();
  NMRS_RETURN_IF_ERROR(BuildEngine(st.get()));
  st->build_millis = timer.ElapsedMillis();
  return st;
}

StatusOr<class Snapshot> Database::Snapshot() {
  std::shared_ptr<State> gen;
  std::shared_ptr<DeltaSegment> delta;
  DeltaVersion v;
  {
    std::scoped_lock lock(mu_);
    gen = gen_;
    delta = delta_;
    v = delta->version();
    if (v.total() == 0) {
      ++stats_.snapshots_reused;
      class Snapshot snap(gen);
      return snap;
    }
    if (cached_ != nullptr && cached_base_ == gen.get() &&
        cached_version_ == v) {
      ++stats_.snapshots_reused;
      class Snapshot snap(cached_);
      return snap;
    }
  }
  std::scoped_lock snap_lock(snap_mu_);
  {
    // Another thread may have materialized this epoch while we waited.
    std::scoped_lock lock(mu_);
    if (cached_ != nullptr && cached_base_ == gen.get() &&
        cached_version_ == v) {
      ++stats_.snapshots_reused;
      class Snapshot snap(cached_);
      return snap;
    }
  }
  const std::string label = opts_.name + ".gen" +
                            std::to_string(gen->generation) + ".snap.i" +
                            std::to_string(v.inserts) + "d" +
                            std::to_string(v.deletes);
  NMRS_ASSIGN_OR_RETURN(std::shared_ptr<State> st,
                        Materialize(*gen, *delta, v, gen->generation, v, label));
  // The previous epoch's state is freed here, after mu_ is released, unless
  // a snapshot handle still holds it.
  std::shared_ptr<State> stale;
  {
    std::scoped_lock lock(mu_);
    stale = std::exchange(cached_, st);
    cached_base_ = gen.get();
    cached_version_ = v;
    ++stats_.snapshots_built;
    stats_.snapshot_build_io += st->build_io;
    stats_.snapshot_build_millis += st->build_millis;
  }
  class Snapshot snap(st);
  return snap;
}

StatusOr<DbQueryResult> Database::Query(const Object& query) {
  NMRS_ASSIGN_OR_RETURN(class Snapshot snap, Snapshot());
  return snap.Query(query);
}

StatusOr<DbBatchResult> Database::RunBatch(const std::vector<Object>& queries) {
  NMRS_ASSIGN_OR_RETURN(class Snapshot snap, Snapshot());
  return snap.RunBatch(queries);
}

StatusOr<DbOverlayBatchResult> Database::RunOverlayBatch(
    const std::vector<Object>& queries,
    const std::vector<const MatrixOverlay*>& overlays) {
  NMRS_ASSIGN_OR_RETURN(class Snapshot snap, Snapshot());
  return snap.RunOverlayBatch(queries, overlays);
}

Status Database::Compact() {
  std::scoped_lock compact_lock(compact_mu_);
  std::shared_ptr<State> gen;
  std::shared_ptr<DeltaSegment> delta;
  DeltaVersion v;
  {
    std::scoped_lock lock(mu_);
    gen = gen_;
    delta = delta_;
    v = delta->version();
  }
  if (v.total() == 0) return Status::OK();  // nothing to fold

  // Build the new generation off-line: readers keep querying the current
  // one (and their pinned snapshots) while the merge runs.
  const uint64_t new_gen = gen->generation + 1;
  NMRS_ASSIGN_OR_RETURN(
      std::shared_ptr<State> ng,
      Materialize(*gen, *delta, v, new_gen, DeltaVersion{},
                  opts_.name + ".gen" + std::to_string(new_gen)));

  // The new generation's key map, built before the swap: every row of it
  // is live as of version v.
  std::unordered_map<uint64_t, RowLocation> live;
  live.reserve(ng->keys.size());
  for (RowId r = 0; r < ng->keys.size(); ++r) {
    live.emplace(ng->keys[r], RowLocation{false, r});
  }

  // Atomic swap: re-point the base generation, fold mutations that arrived
  // during the merge into a fresh delta and into the new key map, swap the
  // maps. Writers are blocked only for this O(delta suffix) section, never
  // for the merge or the map build; readers are never blocked at all. The
  // replaced states and the old map are freed after mu_ is released.
  std::shared_ptr<State> stale;
  std::shared_ptr<DeltaSegment> stale_delta;
  {
    std::scoped_lock lock(mu_);
    auto fresh = std::make_shared<DeltaSegment>(schema_);
    const DeltaVersion cur = delta_->version();
    for (uint64_t i = v.inserts; i < cur.inserts; ++i) {
      const uint64_t key = delta_->InsertKey(i);
      const uint64_t rank = fresh->AppendInsert(key, delta_->InsertValues(i),
                                                delta_->InsertNumerics(i));
      live[key] = RowLocation{true, rank};
    }
    // A carried-over delete's target moved: resolve it again against the
    // new generation (or the fresh delta's ranks) through the new map.
    for (uint64_t d = v.deletes; d < cur.deletes; ++d) {
      const uint64_t key = delta_->DeleteKey(d);
      auto it = live.find(key);
      NMRS_CHECK(it != live.end())
          << "carried-over delete of key " << key << " names no live row";
      fresh->AppendDelete(key, it->second);
      live.erase(it);
    }
    live_.swap(live);
    gen_ = ng;
    stale_delta = std::exchange(delta_, std::move(fresh));
    gen_counter_ = new_gen;
    stale = std::move(cached_);
    cached_base_ = nullptr;
    ++stats_.compactions;
    stats_.snapshot_build_io += ng->build_io;
    stats_.snapshot_build_millis += ng->build_millis;
  }
  return Status::OK();
}

StatusOr<RecoveredDatabase> Database::Recover(const Dataset& base,
                                              const SimilaritySpace& space,
                                              const SimulatedDisk& wal_source,
                                              FileId wal_file,
                                              DatabaseOptions opts) {
  // Image the WAL onto a scratch disk (the source may belong to a dead
  // database whose pages we may only peek at).
  SimulatedDisk scratch(wal_source.page_size());
  const FileId file = scratch.CreateFile("wal.recover");
  const uint64_t pages = wal_source.NumPages(wal_file);
  for (PageId p = 0; p < pages; ++p) {
    const Page* pg = wal_source.PeekPage(wal_file, p);
    if (pg == nullptr) {
      return Status::Internal("WAL page " + std::to_string(p) +
                              " unreadable during recovery");
    }
    NMRS_RETURN_IF_ERROR(scratch.AppendPage(file, *pg).status());
  }
  NMRS_ASSIGN_OR_RETURN(WalReplay replay, ReplayWal(&scratch, file));

  NMRS_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                        Open(base, space, std::move(opts)));
  const size_t m = db->schema_.num_attributes();
  const size_t want_numerics = db->schema_.NumNumeric() > 0 ? m : 0;
  for (size_t r = 0; r < replay.records.size(); ++r) {
    WalRecord& rec = replay.records[r];
    if (rec.type == WalRecord::Type::kInsert) {
      if (rec.values.size() != m || rec.numerics.size() != want_numerics) {
        return Status::Corruption("WAL record " + std::to_string(r) +
                                  " does not match the schema");
      }
      for (AttrId a = 0; a < m; ++a) {
        if (rec.values[a] >= db->schema_.attribute(a).cardinality) {
          return Status::Corruption("WAL record " + std::to_string(r) +
                                    " carries an out-of-domain value");
        }
      }
      Status s = db->ApplyInsert(rec.key, std::move(rec.values),
                                 std::move(rec.numerics))
                     .status();
      if (!s.ok()) {
        return Status::Corruption("WAL replay failed at record " +
                                  std::to_string(r) + ": " + s.ToString());
      }
    } else {
      Status s = db->Delete(rec.key);
      if (!s.ok()) {
        return Status::Corruption("WAL replay failed at record " +
                                  std::to_string(r) + ": " + s.ToString());
      }
    }
  }
  RecoveredDatabase out;
  out.db = std::move(db);
  out.torn_tail = replay.torn_tail;
  out.records_replayed = replay.records.size();
  return out;
}

}  // namespace nmrs
