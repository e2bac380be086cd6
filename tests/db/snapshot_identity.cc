// Snapshot identity sweep: seeded random mutation histories through the
// Database front door, checked after every step against Database::Open
// over an in-memory mirror of the logical rows (docs/MUTABILITY.md).
//
// A history mixes inserts of fresh rows, of copies of live rows and of the
// values of deleted rows; deletes of base rows and of delta inserts;
// pinned snapshots; compactions, some with deletes and inserts landing
// while the merge runs; and Recover from the WAL image. After every step
// the current snapshot must equal the mirror's generation 0: same row
// count, same page bytes, and the same stable key behind every RowId. A
// snapshot pinned earlier in the history must still equal the mirror it
// was pinned against at the end.
//
// Configurations: all six algorithms, a categorical and a mixed
// (categorical + numeric) schema, CRC32C page seals off and on. Base
// tables span several 32 KiB pages, and values come from small domains so
// sort ties across base and delta rows are common.
//
// Deliberately gtest-free so ci.sh can run it under ASan/UBSan with only
// instrumented code. Exits 0 when every check holds, 1 otherwise.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "db/database.h"
#include "sim/dissimilarity_matrix.h"
#include "sim/numeric_dissimilarity.h"
#include "sim/similarity_space.h"

namespace nmrs {
namespace {

constexpr Algorithm kAllAlgos[] = {Algorithm::kNaive,   Algorithm::kBRS,
                                   Algorithm::kSRS,     Algorithm::kTRS,
                                   Algorithm::kTileSRS, Algorithm::kTileTRS};

struct Row {
  uint64_t key;
  std::vector<ValueId> values;
  std::vector<double> numerics;  // empty for a categorical schema
};

// The logical rows in RowId order of a from-scratch rebuild: base rows in
// key order, then inserts in insert order, deletes removed in place.
struct Mirror {
  std::vector<Row> rows;

  Dataset Build(const Schema& schema) const {
    Dataset data(schema);
    data.Reserve(rows.size());
    for (const Row& row : rows) {
      if (row.numerics.empty()) {
        data.AppendCategoricalRow(row.values);
      } else {
        data.AppendRow(row.values, row.numerics);
      }
    }
    return data;
  }

  // Removes `key` and returns its row.
  Row Remove(uint64_t key) {
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].key == key) {
        Row out = std::move(rows[i]);
        rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(i));
        return out;
      }
    }
    std::fprintf(stderr, "mirror has no key %llu\n",
                 static_cast<unsigned long long>(key));
    std::abort();
  }
};

struct Config {
  Algorithm algo;
  bool numeric;
  bool checksum;
  uint64_t seed;

  std::string Name() const {
    return "algo " + std::to_string(static_cast<int>(algo)) +
           (numeric ? " numeric" : " categorical") +
           (checksum ? " checksummed" : "") + " seed " + std::to_string(seed);
  }
};

struct Tally {
  uint64_t checks = 0;
  uint64_t base_deletes = 0;
  uint64_t delta_deletes = 0;
  uint64_t reinserts = 0;
  uint64_t compactions = 0;
  uint64_t overlapped_compactions = 0;  // a mutation landed mid-merge
  uint64_t recovers = 0;
  uint64_t multi_page = 0;  // checks of snapshots with > 1 page
};

Schema MakeSchema(bool numeric) {
  Schema schema = Schema::Categorical({5, 3, 4, 3});
  if (numeric) {
    schema.AddAttribute(AttributeInfo{"x", 4, true, Interval{0.0, 10.0}});
  }
  return schema;
}

// A random row of the schema: numerics come from an 11-value grid so
// numeric ties happen too.
Row RandomRow(const Schema& schema, Rng& rng) {
  Row row{0, std::vector<ValueId>(schema.num_attributes(), 0), {}};
  const bool numeric = schema.NumNumeric() > 0;
  if (numeric) row.numerics.assign(schema.num_attributes(), 0.0);
  for (AttrId a = 0; a < schema.num_attributes(); ++a) {
    const AttributeInfo& info = schema.attribute(a);
    if (info.is_numeric) {
      row.numerics[a] = static_cast<double>(rng.Uniform(11));
    } else {
      row.values[a] = static_cast<ValueId>(rng.Uniform(info.cardinality));
    }
  }
  return row;
}

class History {
 public:
  History(const Config& cfg, Tally* tally)
      : cfg_(cfg),
        tally_(tally),
        rng_(cfg.seed),
        schema_(MakeSchema(cfg.numeric)),
        base_(schema_) {
    Rng space_rng = rng_.Fork();
    for (AttrId a = 0; a < schema_.num_attributes(); ++a) {
      const AttributeInfo& info = schema_.attribute(a);
      if (info.is_numeric) {
        space_.AddNumeric(NumericDissimilarity(0.5));
      } else {
        space_.AddCategorical(MakeRandomMatrix(info.cardinality, space_rng));
      }
    }
    const uint64_t n = 1500 + rng_.Uniform(700);
    for (uint64_t k = 0; k < n; ++k) {
      Row row = RandomRow(schema_, rng_);
      row.key = k;
      mirror_.rows.push_back(row);
      in_base_.push_back(true);
    }
    base_ = mirror_.Build(schema_);
    opts_.algo = cfg.algo;
    opts_.prepare.checksum_pages = cfg.checksum;
    auto db = Database::Open(base_, space_, opts_);
    Expect(db.ok(), "Open: " + db.status().ToString());
    db_ = std::move(*db);
  }

  void Run(int steps) {
    Check("open");
    for (step_ = 0; step_ < steps; ++step_) {
      const uint64_t op = rng_.Uniform(100);
      if (op < 22) {
        InsertBurst();
      } else if (op < 32) {
        Reinsert();
      } else if (op < 50) {
        DeleteBase();
      } else if (op < 64) {
        DeleteDelta();
      } else if (op < 74) {
        Pin();
      } else if (op < 84) {
        Compact();
      } else if (op < 93) {
        CompactUnderWrites();
      } else {
        Recover();
      }
    }
    if (pinned_.valid()) CheckSnapshot(pinned_, pinned_mirror_, "pinned");
  }

 private:
  // Live keys, split by whether their row sits in the current base
  // generation or in the delta.
  std::vector<size_t> LiveIndexes(bool base) const {
    std::vector<size_t> out;
    for (size_t i = 0; i < mirror_.rows.size(); ++i) {
      if (IsBase(mirror_.rows[i].key) == base) out.push_back(i);
    }
    return out;
  }

  bool IsBase(uint64_t key) const {
    return key < in_base_.size() && in_base_[key];
  }

  void DoInsert(Row row, const std::string& what) {
    auto key = db_->Insert(row.values, row.numerics);
    Expect(key.ok(), what + ": " + key.status().ToString());
    row.key = *key;
    if (in_base_.size() <= row.key) in_base_.resize(row.key + 1, false);
    mirror_.rows.push_back(std::move(row));
  }

  void DoDelete(size_t index, const std::string& what) {
    const uint64_t key = mirror_.rows[index].key;
    const Status s = db_->Delete(key);
    Expect(s.ok(), what + ": " + s.ToString());
    (IsBase(key) ? tally_->base_deletes : tally_->delta_deletes)++;
    deleted_.push_back(mirror_.Remove(key));
  }

  void InsertBurst() {
    const uint64_t n = 1 + rng_.Uniform(12);
    for (uint64_t i = 0; i < n; ++i) {
      // A third are copies of a live row: exact ties with base rows.
      if (!mirror_.rows.empty() && rng_.Uniform(3) == 0) {
        DoInsert(mirror_.rows[rng_.Uniform(mirror_.rows.size())],
                 "insert copy");
      } else {
        DoInsert(RandomRow(schema_, rng_), "insert");
      }
    }
    Check("insert burst");
  }

  void Reinsert() {
    if (deleted_.empty()) return InsertBurst();
    const uint64_t n = 1 + rng_.Uniform(4);
    for (uint64_t i = 0; i < n && !deleted_.empty(); ++i) {
      const size_t pick = rng_.Uniform(deleted_.size());
      Row row = deleted_[pick];
      deleted_.erase(deleted_.begin() + static_cast<std::ptrdiff_t>(pick));
      DoInsert(std::move(row), "re-insert");
      ++tally_->reinserts;
    }
    Check("re-insert");
  }

  void DeleteBase() {
    const uint64_t n = 1 + rng_.Uniform(10);
    for (uint64_t i = 0; i < n; ++i) {
      const std::vector<size_t> base = LiveIndexes(true);
      if (base.empty()) break;
      DoDelete(base[rng_.Uniform(base.size())], "delete base row");
    }
    Check("delete base rows");
  }

  void DeleteDelta() {
    const uint64_t n = 1 + rng_.Uniform(4);
    for (uint64_t i = 0; i < n; ++i) {
      const std::vector<size_t> delta = LiveIndexes(false);
      if (delta.empty()) break;
      DoDelete(delta[rng_.Uniform(delta.size())], "delete delta insert");
    }
    Check("delete delta inserts");
  }

  void Pin() {
    auto snap = db_->Snapshot();
    Expect(snap.ok(), "Snapshot: " + snap.status().ToString());
    // A second call at the same version is the cached epoch.
    auto again = db_->Snapshot();
    Expect(again.ok() && again->delta_version() == snap->delta_version() &&
               &again->prepared() == &snap->prepared(),
           "repeated Snapshot at one version built a new state");
    pinned_ = *snap;
    pinned_mirror_ = mirror_;
    Check("pin");
  }

  void AllInBase() {
    in_base_.assign(in_base_.size(), false);
    for (const Row& row : mirror_.rows) in_base_[row.key] = true;
  }

  void Compact() {
    const Status s = db_->Compact();
    Expect(s.ok(), "Compact: " + s.ToString());
    ++tally_->compactions;
    AllInBase();
    Check("compact");
  }

  // Compacts on a second thread while this one deletes base rows and
  // inserts. Mutations that land during the merge are carried over into
  // the fresh delta, their deletes resolved against the new generation.
  void CompactUnderWrites() {
    const uint64_t gen_before = db_->generation();
    std::atomic<bool> started{false};
    Status compact_status;
    std::thread compactor([&] {
      started.store(true);
      compact_status = db_->Compact();
    });
    while (!started.load()) std::this_thread::yield();
    // A fixed number of writes, so the history does not depend on timing;
    // only how many of them land mid-merge does.
    const uint64_t writes = 12;
    uint64_t before_swap = 0;  // writes that completed before the swap
    for (uint64_t w = 0; w < writes; ++w) {
      const std::vector<size_t> base = LiveIndexes(true);
      if (!base.empty() && rng_.Uniform(3) != 0) {
        DoDelete(base[rng_.Uniform(base.size())], "delete during compaction");
      } else {
        DoInsert(RandomRow(schema_, rng_), "insert during compaction");
      }
      if (db_->generation() == gen_before) ++before_swap;
    }
    compactor.join();
    Expect(compact_status.ok(), "Compact: " + compact_status.ToString());
    ++tally_->compactions;
    // The fresh delta holds the writes carried over from the merge plus
    // those after the swap, at most writes - before_swap. Any excess was
    // carried over.
    if (db_->delta_version().total() + before_swap > writes) {
      ++tally_->overlapped_compactions;
    }
    Check("compact under writes");
    // Fold the rest, so base/delta membership is known again.
    Compact();
  }

  void Recover() {
    auto r = Database::Recover(base_, space_, db_->wal_disk(), db_->wal_file(),
                               db_->options());
    Expect(r.ok(), "Recover: " + r.status().ToString());
    Expect(!r->torn_tail, "Recover saw a torn tail");
    db_ = std::move(r->db);
    ++tally_->recovers;
    // The recovered database sits on generation 0 again: every mutation
    // since Open is in its delta.
    in_base_.assign(in_base_.size(), false);
    for (const Row& row : mirror_.rows) {
      if (row.key < base_.num_rows()) in_base_[row.key] = true;
    }
    Check("recover");
  }

  void Check(const std::string& what) {
    Expect(db_->num_rows() == mirror_.rows.size(),
           what + ": num_rows " + std::to_string(db_->num_rows()) + " vs " +
               std::to_string(mirror_.rows.size()));
    auto snap = db_->Snapshot();
    Expect(snap.ok(), what + ": Snapshot: " + snap.status().ToString());
    CheckSnapshot(*snap, mirror_, what);
  }

  void CheckSnapshot(const Snapshot& snap, const Mirror& mirror,
                     const std::string& what) {
    ++tally_->checks;
    auto ref = Database::Open(mirror.Build(schema_), space_, db_->options());
    Expect(ref.ok(), what + ": mirror Open: " + ref.status().ToString());
    auto want_snap = (*ref)->Snapshot();
    Expect(want_snap.ok(), what + ": mirror Snapshot");
    const StoredDataset& got = snap.prepared().stored;
    const StoredDataset& want = want_snap->prepared().stored;
    Expect(got.num_rows() == mirror.rows.size() &&
               got.num_rows() == want.num_rows(),
           what + ": row count " + std::to_string(got.num_rows()) + " vs " +
               std::to_string(want.num_rows()));
    Expect(got.num_pages() == want.num_pages(),
           what + ": page count " + std::to_string(got.num_pages()) + " vs " +
               std::to_string(want.num_pages()));
    if (want.num_pages() > 1) ++tally_->multi_page;
    for (PageId p = 0; p < want.num_pages(); ++p) {
      const Page* gp = got.disk()->PeekPage(got.file(), p);
      const Page* wp = want.disk()->PeekPage(want.file(), p);
      Expect(gp != nullptr && wp != nullptr && gp->size() == wp->size() &&
                 std::memcmp(gp->data(), wp->data(), gp->size()) == 0,
             what + ": page " + std::to_string(p) + " differs");
    }
    // The mirror database's key of RowId r is r's position in the mirror.
    for (RowId r = 0; r < want.num_rows(); ++r) {
      const uint64_t want_key = mirror.rows[want_snap->KeyOf(r)].key;
      Expect(snap.KeyOf(r) == want_key,
             what + ": key of row " + std::to_string(r) + " is " +
                 std::to_string(snap.KeyOf(r)) + ", want " +
                 std::to_string(want_key));
    }
  }

  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    std::printf("snapshot_identity: FAILED [%s] step %d: %s\n",
                cfg_.Name().c_str(), step_, what.c_str());
    std::fflush(stdout);
    std::exit(1);
  }

  Config cfg_;
  Tally* tally_;
  Rng rng_;
  Schema schema_;
  SimilaritySpace space_;
  Dataset base_;
  DatabaseOptions opts_;
  std::unique_ptr<Database> db_;
  Mirror mirror_;
  std::vector<bool> in_base_;  // by key: row sits in the base generation
  std::vector<Row> deleted_;   // deleted rows, for re-inserts
  Snapshot pinned_;
  Mirror pinned_mirror_;
  int step_ = -1;
};

}  // namespace
}  // namespace nmrs

int main(int argc, char** argv) {
  int steps = 30;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--steps=", 8) == 0) {
      steps = std::atoi(argv[i] + 8);
    }
  }
  nmrs::Tally tally;
  uint64_t seed = 1;
  for (nmrs::Algorithm algo : nmrs::kAllAlgos) {
    for (bool numeric : {false, true}) {
      for (bool checksum : {false, true}) {
        nmrs::History history({algo, numeric, checksum, seed++}, &tally);
        history.Run(steps);
      }
    }
  }
  std::printf(
      "snapshot_identity: %llu checks (%llu multi-page), %llu base deletes, "
      "%llu delta deletes, %llu re-inserts, %llu compactions (%llu with "
      "writes mid-merge), %llu recovers\n",
      static_cast<unsigned long long>(tally.checks),
      static_cast<unsigned long long>(tally.multi_page),
      static_cast<unsigned long long>(tally.base_deletes),
      static_cast<unsigned long long>(tally.delta_deletes),
      static_cast<unsigned long long>(tally.reinserts),
      static_cast<unsigned long long>(tally.compactions),
      static_cast<unsigned long long>(tally.overlapped_compactions),
      static_cast<unsigned long long>(tally.recovers));
  if (tally.base_deletes == 0 || tally.delta_deletes == 0 ||
      tally.reinserts == 0 || tally.compactions == 0 || tally.recovers == 0 ||
      tally.multi_page == 0) {
    std::printf("snapshot_identity: FAILED coverage\n");
    return 1;
  }
  std::printf("snapshot_identity: OK\n");
  return 0;
}
