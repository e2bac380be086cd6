#include "db/database.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/pipeline.h"
#include "sim/matrix_overlay.h"
#include "exec/query_engine.h"
#include "gtest/gtest.h"
#include "testing/test_util.h"

namespace nmrs {
namespace {

using ::nmrs::testing::RandomInstance;

constexpr Algorithm kAllAlgos[] = {Algorithm::kNaive,   Algorithm::kBRS,
                                   Algorithm::kSRS,     Algorithm::kTRS,
                                   Algorithm::kTileSRS, Algorithm::kTileTRS};

// Mirrors a database's mutation history as the logical row list a full
// rebuild would see: base keys in id order, then live inserts in insert
// order, deletions removed in place.
class ReferenceRows {
 public:
  explicit ReferenceRows(const Dataset& base) {
    for (RowId r = 0; r < base.num_rows(); ++r) {
      rows_.push_back({r, std::vector<ValueId>(
                              base.RowValues(r),
                              base.RowValues(r) + base.schema().num_attributes())});
    }
  }

  void Insert(uint64_t key, std::vector<ValueId> values) {
    rows_.push_back({key, std::move(values)});
  }

  void Delete(uint64_t key) {
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (rows_[i].key == key) {
        rows_.erase(rows_.begin() + i);
        return;
      }
    }
    FAIL() << "reference delete of unknown key " << key;
  }

  uint64_t KeyAt(size_t i) const { return rows_[i].key; }
  size_t size() const { return rows_.size(); }

  std::vector<uint64_t> LiveKeys() const {
    std::vector<uint64_t> keys;
    keys.reserve(rows_.size());
    for (const Row& row : rows_) keys.push_back(row.key);
    return keys;
  }

  // Rebuilds the merged dataset from scratch, as Open() would see it.
  Dataset Rebuild(const Schema& schema) const {
    Dataset merged(schema);
    for (const Row& row : rows_) merged.AppendRow(row.values, {});
    return merged;
  }

 private:
  struct Row {
    uint64_t key;
    std::vector<ValueId> values;
  };
  std::vector<Row> rows_;
};

// Applies a deterministic workload of inserts (random rows, occasionally
// duplicating an existing row to exercise sort ties) and deletes (of base
// and of freshly inserted keys) to both the database and the reference.
void ApplyWorkload(Database* db, ReferenceRows* ref, uint64_t seed,
                   int num_mutations) {
  Rng rng(seed);
  const Schema& schema = db->schema();
  std::vector<uint64_t> live = ref->LiveKeys();
  for (int i = 0; i < num_mutations; ++i) {
    const bool del = !live.empty() && rng.Uniform(3) == 0;
    if (del) {
      const size_t pick = rng.Uniform(live.size());
      const uint64_t key = live[pick];
      ASSERT_TRUE(db->Delete(key).ok());
      ref->Delete(key);
      live.erase(live.begin() + pick);
    } else {
      std::vector<ValueId> values(schema.num_attributes());
      if (!live.empty() && rng.Uniform(4) == 0) {
        // Duplicate a live row's values: exercises full-tie ordering.
        const size_t src = rng.Uniform(ref->size());
        const Dataset snapshot = ref->Rebuild(schema);
        std::memcpy(values.data(), snapshot.RowValues(src),
                    sizeof(ValueId) * schema.num_attributes());
      } else {
        for (AttrId a = 0; a < schema.num_attributes(); ++a) {
          values[a] = static_cast<ValueId>(
              rng.Uniform(schema.attribute(a).cardinality));
        }
      }
      auto key = db->Insert(values);
      ASSERT_TRUE(key.ok()) << key.status().ToString();
      ref->Insert(*key, values);
      live.push_back(*key);
    }
  }
}

std::vector<Object> MakeQueries(const RandomInstance& inst, uint64_t seed,
                                int count) {
  Rng rng(seed);
  std::vector<Object> queries;
  const Schema& schema = inst.data.schema();
  for (int q = 0; q < count; ++q) {
    std::vector<ValueId> values(schema.num_attributes());
    for (AttrId a = 0; a < schema.num_attributes(); ++a) {
      values[a] =
          static_cast<ValueId>(rng.Uniform(schema.attribute(a).cardinality));
    }
    queries.push_back(inst.data.MakeObject(values, {}));
  }
  return queries;
}

// Byte-for-byte comparison of two stored datasets' page images.
void ExpectSameBytes(const StoredDataset& got, const StoredDataset& want) {
  ASSERT_EQ(got.num_rows(), want.num_rows());
  ASSERT_EQ(got.num_pages(), want.num_pages());
  for (PageId p = 0; p < want.num_pages(); ++p) {
    const Page* gp = got.disk()->PeekPage(got.file(), p);
    const Page* wp = want.disk()->PeekPage(want.file(), p);
    ASSERT_NE(gp, nullptr);
    ASSERT_NE(wp, nullptr);
    ASSERT_EQ(gp->size(), wp->size());
    ASSERT_EQ(std::memcmp(gp->data(), wp->data(), gp->size()), 0)
        << "page " << p << " differs";
  }
}

// `compare_io` must be false when the engine composition makes IO counts
// interleaving-dependent (shared buffer pool + multiple workers): rows and
// pruning counters stay deterministic, the cache hit/miss split does not.
void ExpectSameResults(const std::vector<ReverseSkylineResult>& got,
                       const std::vector<ReverseSkylineResult>& want,
                       bool compare_io = true) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t q = 0; q < want.size(); ++q) {
    EXPECT_EQ(got[q].rows, want[q].rows) << "query " << q;
    EXPECT_EQ(got[q].stats.checks, want[q].stats.checks) << "query " << q;
    EXPECT_EQ(got[q].stats.pair_tests, want[q].stats.pair_tests)
        << "query " << q;
    if (compare_io) {
      EXPECT_EQ(got[q].stats.io.TotalReads(), want[q].stats.io.TotalReads())
          << "query " << q;
    }
  }
}

// The core contract: a snapshot of base+delta is bit-identical — page
// bytes, result rows, counters — to re-preparing the merged dataset from
// scratch, for every algorithm.
TEST(DatabaseTest, SnapshotBitIdenticalToRebuildAllAlgorithms) {
  for (Algorithm algo : kAllAlgos) {
    SCOPED_TRACE(static_cast<int>(algo));
    RandomInstance inst(91, 200, {8, 6, 4});
    DatabaseOptions opts;
    opts.algo = algo;
    auto db = Database::Open(inst.data, inst.space, opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();

    ReferenceRows ref(inst.data);
    ApplyWorkload(db->get(), &ref, 7 + static_cast<int>(algo), 80);

    auto snap = (*db)->Snapshot();
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ASSERT_EQ(snap->num_rows(), ref.size());
    for (RowId r = 0; r < snap->num_rows(); ++r) {
      ASSERT_EQ(snap->KeyOf(r), ref.KeyAt(r)) << "row " << r;
    }

    // Full rebuild with the pinned attribute order.
    const Dataset merged = ref.Rebuild(inst.data.schema());
    SimulatedDisk disk;
    auto prep = PrepareDataset(&disk, merged, algo, (*db)->options().prepare,
                               "rebuild");
    ASSERT_TRUE(prep.ok()) << prep.status().ToString();
    ExpectSameBytes(snap->prepared().stored, prep->stored);

    const std::vector<Object> queries =
        MakeQueries(inst, 1000 + static_cast<int>(algo), 8);
    QueryEngine engine(*prep, inst.space, algo, EngineOptions{});
    auto want = engine.RunBatch(queries);
    ASSERT_TRUE(want.ok());
    auto got = snap->RunBatch(queries);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameResults(got->results(), want->results);
    // Key translation matches the reference row list.
    for (size_t q = 0; q < queries.size(); ++q) {
      const std::vector<RowId>& rows = got->results()[q].rows;
      for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(got->keys[q][i], ref.KeyAt(rows[i]));
      }
    }
  }
}

// Same contract composed with the executor vocabulary: workers, cache,
// CRC32C page seals, kernels.
TEST(DatabaseTest, SnapshotBitIdenticalUnderEngineComposition) {
  RandomInstance inst(92, 300, {10, 8, 6, 4});
  DatabaseOptions opts;
  opts.algo = Algorithm::kTRS;
  opts.prepare.checksum_pages = true;
  opts.engine.num_workers = 4;
  opts.engine.cache_pages = 32;
  opts.engine.rs.resilience.checksum_pages = true;
  auto db = Database::Open(inst.data, inst.space, opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  ReferenceRows ref(inst.data);
  ApplyWorkload(db->get(), &ref, 17, 120);

  auto snap = (*db)->Snapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  const Dataset merged = ref.Rebuild(inst.data.schema());
  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, merged, opts.algo, (*db)->options().prepare,
                             "rebuild");
  ASSERT_TRUE(prep.ok());
  ExpectSameBytes(snap->prepared().stored, prep->stored);

  const std::vector<Object> queries = MakeQueries(inst, 2000, 12);
  QueryEngine engine(*prep, inst.space, opts.algo, opts.engine);
  auto want = engine.RunBatch(queries);
  ASSERT_TRUE(want.ok());
  auto got = snap->RunBatch(queries);
  ASSERT_TRUE(got.ok());
  ExpectSameResults(got->results(), want->results, /*compare_io=*/false);
}

// Sharded path: the snapshot partitions and answers exactly like an
// engine over a partition of the rebuilt dataset.
TEST(DatabaseTest, ShardedSnapshotMatchesRebuild) {
  RandomInstance inst(93, 240, {8, 8, 4});
  DatabaseOptions opts;
  opts.algo = Algorithm::kSRS;
  opts.num_shards = 3;
  opts.engine.num_workers = 2;
  auto db = Database::Open(inst.data, inst.space, opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  ReferenceRows ref(inst.data);
  ApplyWorkload(db->get(), &ref, 23, 90);

  auto snap = (*db)->Snapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  const Dataset merged = ref.Rebuild(inst.data.schema());
  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, merged, opts.algo, (*db)->options().prepare,
                             "rebuild");
  ASSERT_TRUE(prep.ok());
  ShardPlanOptions plan = opts.shard_plan;
  plan.num_shards = opts.num_shards;
  auto sharded = ShardedDataset::Partition(*prep, plan);
  ASSERT_TRUE(sharded.ok());
  QueryEngine engine(*sharded, inst.space, opts.algo, opts.engine);

  const std::vector<Object> queries = MakeQueries(inst, 3000, 10);
  auto want = engine.RunBatch(queries);
  ASSERT_TRUE(want.ok());
  auto got = snap->RunBatch(queries);
  ASSERT_TRUE(got.ok());
  ASSERT_FALSE(got->plain.has_value());
  ExpectSameResults(got->results(), want->results);
}

// A pinned snapshot is immutable: mutations and compactions after the pin
// never change what it returns.
TEST(DatabaseTest, SnapshotIsolation) {
  RandomInstance inst(94, 150, {6, 6, 6});
  DatabaseOptions opts;
  opts.algo = Algorithm::kBRS;
  auto db = Database::Open(inst.data, inst.space, opts);
  ASSERT_TRUE(db.ok());

  ReferenceRows ref(inst.data);
  ApplyWorkload(db->get(), &ref, 31, 40);

  auto snap = (*db)->Snapshot();
  ASSERT_TRUE(snap.ok());
  const uint64_t rows_at_pin = snap->num_rows();
  const std::vector<Object> queries = MakeQueries(inst, 4000, 5);
  auto before = snap->RunBatch(queries);
  ASSERT_TRUE(before.ok());

  // Mutate heavily, compact, mutate again.
  ApplyWorkload(db->get(), &ref, 37, 60);
  ASSERT_TRUE((*db)->Compact().ok());
  ApplyWorkload(db->get(), &ref, 41, 20);

  EXPECT_EQ(snap->num_rows(), rows_at_pin);
  auto after = snap->RunBatch(queries);
  ASSERT_TRUE(after.ok());
  ExpectSameResults(after->results(), before->results());

  // A fresh snapshot sees the new state.
  auto now = (*db)->Snapshot();
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(now->num_rows(), ref.size());
}

// Compaction folds the delta into a new generation without changing any
// observable bytes or answers, and resets the delta.
TEST(DatabaseTest, CompactionIsTransparent) {
  for (Algorithm algo : {Algorithm::kTRS, Algorithm::kTileTRS}) {
    SCOPED_TRACE(static_cast<int>(algo));
    RandomInstance inst(95, 180, {8, 5, 9});
    DatabaseOptions opts;
    opts.algo = algo;
    auto db = Database::Open(inst.data, inst.space, opts);
    ASSERT_TRUE(db.ok());

    ReferenceRows ref(inst.data);
    ApplyWorkload(db->get(), &ref, 51, 70);

    auto before = (*db)->Snapshot();
    ASSERT_TRUE(before.ok());
    EXPECT_EQ((*db)->generation(), 0u);
    ASSERT_TRUE((*db)->Compact().ok());
    EXPECT_EQ((*db)->generation(), 1u);
    EXPECT_EQ((*db)->delta_version().total(), 0u);
    EXPECT_EQ((*db)->num_rows(), ref.size());
    EXPECT_EQ((*db)->num_base_rows(), ref.size());

    auto after = (*db)->Snapshot();
    ASSERT_TRUE(after.ok());
    ExpectSameBytes(after->prepared().stored, before->prepared().stored);
    for (RowId r = 0; r < after->num_rows(); ++r) {
      ASSERT_EQ(after->KeyOf(r), before->KeyOf(r));
    }

    // Mutations after compaction still merge bit-identically.
    ApplyWorkload(db->get(), &ref, 57, 40);
    auto snap = (*db)->Snapshot();
    ASSERT_TRUE(snap.ok());
    const Dataset merged = ref.Rebuild(inst.data.schema());
    SimulatedDisk disk;
    auto prep = PrepareDataset(&disk, merged, algo,
                               (*db)->options().prepare, "rebuild");
    ASSERT_TRUE(prep.ok());
    ExpectSameBytes(snap->prepared().stored, prep->stored);

    // An idempotent second compaction with an empty delta is a no-op.
    const DbStats mid = (*db)->stats();
    auto drained = (*db)->Snapshot();
    ASSERT_TRUE((*db)->Compact().ok());
    ASSERT_TRUE((*db)->Compact().ok());
    EXPECT_EQ((*db)->stats().compactions, mid.compactions + 1);
  }
}

// Overlay batches through the front door match the overlay engine over the
// rebuilt dataset.
TEST(DatabaseTest, OverlayBatchMatchesRebuild) {
  RandomInstance inst(96, 160, {7, 5, 6});
  DatabaseOptions opts;
  opts.algo = Algorithm::kBRS;
  auto db = Database::Open(inst.data, inst.space, opts);
  ASSERT_TRUE(db.ok());

  ReferenceRows ref(inst.data);
  ApplyWorkload(db->get(), &ref, 61, 50);

  // Two tenants, each perturbing one matrix entry.
  MatrixOverlay o1(inst.space);
  ASSERT_TRUE(o1.Set(0, 1, 2, 0.77).ok());
  MatrixOverlay o2(inst.space);
  ASSERT_TRUE(o2.Set(1, 0, 3, 0.11).ok());
  const std::vector<const MatrixOverlay*> overlays = {&o1, &o2};

  const std::vector<Object> queries = MakeQueries(inst, 5000, 6);
  auto got = (*db)->RunOverlayBatch(queries, overlays);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  const Dataset merged = ref.Rebuild(inst.data.schema());
  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, merged, opts.algo,
                             (*db)->options().prepare, "rebuild");
  ASSERT_TRUE(prep.ok());
  QueryEngine engine(*prep, inst.space, opts.algo, opts.engine);
  auto want = engine.RunOverlayBatch(queries, overlays);
  ASSERT_TRUE(want.ok());

  ASSERT_EQ(got->results().size(), want->results.size());
  for (size_t q = 0; q < want->results.size(); ++q) {
    ASSERT_EQ(got->results()[q].size(), want->results[q].size());
    for (size_t u = 0; u < want->results[q].size(); ++u) {
      EXPECT_EQ(got->results()[q][u].rows, want->results[q][u].rows)
          << "query " << q << " user " << u;
    }
  }
}

// Stable-key semantics of the mutation API.
TEST(DatabaseTest, KeyAndValidationSemantics) {
  RandomInstance inst(97, 20, {4, 4});
  auto db = Database::Open(inst.data, inst.space, DatabaseOptions{});
  ASSERT_TRUE(db.ok());

  EXPECT_EQ((*db)->num_rows(), 20u);
  EXPECT_TRUE((*db)->Contains(0));
  EXPECT_FALSE((*db)->Contains(20));

  auto k1 = (*db)->Insert({1, 2});
  ASSERT_TRUE(k1.ok());
  EXPECT_EQ(*k1, 20u);
  auto k2 = (*db)->Insert({3, 3});
  ASSERT_TRUE(k2.ok());
  EXPECT_EQ(*k2, 21u);
  EXPECT_EQ((*db)->num_rows(), 22u);

  EXPECT_TRUE((*db)->Delete(*k1).ok());
  EXPECT_FALSE((*db)->Contains(*k1));
  // Deleted keys are never reused and cannot be deleted twice.
  EXPECT_EQ((*db)->Delete(*k1).code(), StatusCode::kNotFound);
  EXPECT_EQ((*db)->Delete(999).code(), StatusCode::kNotFound);
  auto k3 = (*db)->Insert({0, 0});
  ASSERT_TRUE(k3.ok());
  EXPECT_EQ(*k3, 22u);

  // Wrong arity and out-of-domain values are rejected, not checked-crashed.
  EXPECT_EQ((*db)->Insert({1}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*db)->Insert({4, 0}).status().code(),
            StatusCode::kInvalidArgument);

  const DbStats stats = (*db)->stats();
  EXPECT_EQ(stats.inserts, 3u);
  EXPECT_EQ(stats.deletes, 1u);
  EXPECT_EQ(stats.wal_records, 4u);
}

// Snapshot materialization happens once per epoch; unchanged versions are
// served from the cache, and an empty delta pins the generation for free.
TEST(DatabaseTest, SnapshotEpochCaching) {
  RandomInstance inst(98, 60, {5, 5});
  auto db = Database::Open(inst.data, inst.space, DatabaseOptions{});
  ASSERT_TRUE(db.ok());

  auto s0 = (*db)->Snapshot();
  auto s0b = (*db)->Snapshot();
  ASSERT_TRUE(s0.ok());
  ASSERT_TRUE(s0b.ok());
  EXPECT_EQ(&s0->prepared(), &s0b->prepared());  // same state, zero cost
  EXPECT_EQ((*db)->stats().snapshots_built, 0u);

  ASSERT_TRUE((*db)->Insert({1, 1}).ok());
  auto s1 = (*db)->Snapshot();
  auto s1b = (*db)->Snapshot();
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s1b.ok());
  EXPECT_EQ(&s1->prepared(), &s1b->prepared());
  EXPECT_NE(&s1->prepared(), &s0->prepared());
  EXPECT_EQ((*db)->stats().snapshots_built, 1u);
  EXPECT_GE((*db)->stats().snapshots_reused, 2u);

  ASSERT_TRUE((*db)->Delete(0).ok());
  auto s2 = (*db)->Snapshot();
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ((*db)->stats().snapshots_built, 2u);
  EXPECT_EQ(s2->num_rows(), 60u);
}

// Delta back-pressure: the configured mutation budget surfaces as
// kResourceExhausted, and compaction clears it.
TEST(DatabaseTest, DeltaBackPressure) {
  RandomInstance inst(99, 30, {4, 4});
  DatabaseOptions opts;
  opts.max_delta_mutations = 4;
  auto db = Database::Open(inst.data, inst.space, opts);
  ASSERT_TRUE(db.ok());

  ASSERT_TRUE((*db)->Insert({0, 1}).ok());
  ASSERT_TRUE((*db)->Insert({1, 0}).ok());
  ASSERT_TRUE((*db)->Delete(0).ok());
  ASSERT_TRUE((*db)->Delete(1).ok());
  EXPECT_EQ((*db)->Insert({2, 2}).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ((*db)->Delete(2).code(), StatusCode::kResourceExhausted);

  ASSERT_TRUE((*db)->Compact().ok());
  EXPECT_TRUE((*db)->Insert({2, 2}).ok());
}

// Crash recovery: replaying the WAL image of a mutated database yields a
// database whose snapshot is bit-identical, whatever the crash point.
TEST(DatabaseTest, RecoverReplaysWalBitIdentically) {
  RandomInstance inst(100, 120, {6, 4, 5});
  DatabaseOptions opts;
  opts.algo = Algorithm::kSRS;
  auto db = Database::Open(inst.data, inst.space, opts);
  ASSERT_TRUE(db.ok());

  ReferenceRows ref(inst.data);
  ApplyWorkload(db->get(), &ref, 71, 60);
  // A compaction in the history must not change the replay result.
  ASSERT_TRUE((*db)->Compact().ok());
  ApplyWorkload(db->get(), &ref, 73, 20);

  auto recovered = Database::Recover(inst.data, inst.space, (*db)->wal_disk(),
                                     (*db)->wal_file(), opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered->torn_tail);
  EXPECT_EQ(recovered->records_replayed, (*db)->stats().wal_records);
  EXPECT_EQ(recovered->db->num_rows(), (*db)->num_rows());

  auto want = (*db)->Snapshot();
  auto got = recovered->db->Snapshot();
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->num_rows(), want->num_rows());
  for (RowId r = 0; r < want->num_rows(); ++r) {
    ASSERT_EQ(got->KeyOf(r), want->KeyOf(r)) << "row " << r;
  }
  ExpectSameBytes(got->prepared().stored, want->prepared().stored);
}

// A torn WAL tail (crash mid-append) recovers the durable prefix.
TEST(DatabaseTest, RecoverDetectsTornTail) {
  RandomInstance inst(101, 40, {5, 5});
  auto db = Database::Open(inst.data, inst.space, DatabaseOptions{});
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE((*db)->Insert({static_cast<ValueId>(i % 5),
                               static_cast<ValueId>((i * 3) % 5)})
                    .ok());
  }

  // Image the WAL and tear its tail page.
  const SimulatedDisk& src = (*db)->wal_disk();
  SimulatedDisk image(src.page_size());
  const FileId file = image.CreateFile("torn.wal");
  const uint64_t pages = src.NumPages((*db)->wal_file());
  for (PageId p = 0; p < pages; ++p) {
    ASSERT_TRUE(image.AppendPage(file, *src.PeekPage((*db)->wal_file(), p)).ok());
  }
  Page torn = *image.PeekPage(file, pages - 1);
  torn[5] ^= 0xff;
  ASSERT_TRUE(image.WritePage(file, pages - 1, torn).ok());

  auto recovered =
      Database::Recover(inst.data, inst.space, image, file, DatabaseOptions{});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->torn_tail);
  EXPECT_LT(recovered->records_replayed, 50u);
  EXPECT_EQ(recovered->db->num_rows(), 40u + recovered->records_replayed);
}

// MakeObject derives numeric buckets like dataset rows do, clamping
// out-of-range numerics into the edge buckets (documented insert behavior).
TEST(DatabaseTest, NumericQueriesClampLikeDatasetRows) {
  // One categorical + one numeric attribute.
  Schema schema = Schema::Categorical({4});
  schema.AddAttribute(AttributeInfo{"price", 8, true, Interval{0.0, 100.0}});
  Dataset base(schema);
  Rng rng(55);
  for (int i = 0; i < 64; ++i) {
    base.AppendRow({static_cast<ValueId>(rng.Uniform(4)), 0},
                   {0.0, rng.UniformDouble(0.0, 100.0)});
  }
  SimilaritySpace space;
  Rng mrng(56);
  space.AddCategorical(MakeRandomMatrix(4, mrng));
  space.AddNumeric(NumericDissimilarity{1.0});

  auto db = Database::Open(base, space, DatabaseOptions{});
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  // A stored value outside [lo, hi] would sit outside its bucket's
  // bounds; Insert rejects it, and the database is unchanged.
  const uint64_t before = (*db)->stats().inserts;
  for (double bad : {250.0, -0.5, std::nan(""),
                     std::numeric_limits<double>::infinity()}) {
    auto key = (*db)->Insert({2, 0}, {0.0, bad});
    EXPECT_EQ(key.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  EXPECT_EQ((*db)->stats().inserts, before);
  ASSERT_TRUE((*db)->Insert({2, 0}, {0.0, 100.0}).ok());

  // Queries still clamp into the edge buckets.
  const Object hi = (*db)->MakeObject({1, 0}, {0.0, 1e9});
  const Object top = (*db)->MakeObject({1, 0}, {0.0, 100.0});
  EXPECT_EQ(hi.values[1], top.values[1]);

  auto res = (*db)->Query(hi);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
}

}  // namespace
}  // namespace nmrs
