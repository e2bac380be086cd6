#ifndef NMRS_DATA_DELTA_SEGMENT_H_
#define NMRS_DATA_DELTA_SEGMENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "data/schema.h"

namespace nmrs {

/// Version of a DeltaSegment: how many inserts and deletes have been
/// published. A (inserts, deletes) pair fully identifies a logical state
/// of the delta because both logs are append-only — entry i never changes
/// once published — so pinning a version pins an immutable prefix of each
/// log. This is what Snapshot isolation hangs off.
struct DeltaVersion {
  uint64_t inserts = 0;
  uint64_t deletes = 0;

  bool operator==(const DeltaVersion& o) const = default;
  uint64_t total() const { return inserts + deletes; }
};

namespace delta_internal {

/// Append-only log of fixed-stride records in the SharedTTree idiom
/// (SNIPPETS.md snippet 3): packed chunks addressed through a fixed-size
/// chunk directory, so published bytes are never moved or reallocated and
/// any number of readers may address entries `< size()` while one writer
/// appends. Publication is a release store of the size; readers
/// acquire-load it, which makes the chunk pointer and the record bytes
/// written before the store visible.
///
/// The writer side requires external serialization (Database's mutation
/// mutex); the reader side is lock-free and wait-free.
class PackedLog {
 public:
  static constexpr size_t kChunkRecords = 1024;
  /// 16 Ki chunks * 1 Ki records = 16 Mi records before the log is full —
  /// far past the point where compaction should have folded the delta
  /// back into the base.
  static constexpr size_t kMaxChunks = 16 * 1024;

  /// `stride` = uint64 words per record.
  explicit PackedLog(size_t stride)
      : stride_(stride == 0 ? 1 : stride), chunks_(kMaxChunks) {}

  size_t stride() const { return stride_; }

  /// Published record count. Entries below this index are immutable and
  /// safe to read from any thread.
  uint64_t size() const { return size_.load(std::memory_order_acquire); }

  /// Appends one record of `stride` words and publishes it. Returns its
  /// index. Single writer only. Crashes (NMRS_CHECK) when the log is full
  /// — Database bounds the delta and forces compaction long before.
  uint64_t Append(const uint64_t* words);

  /// Word pointer of record i (i < size()).
  const uint64_t* At(uint64_t i) const {
    const Chunk* c = chunks_[i / kChunkRecords].load(std::memory_order_acquire);
    NMRS_DCHECK(c != nullptr);
    return c->words.data() + (i % kChunkRecords) * stride_;
  }

  uint64_t ApproxBytes() const {
    return num_chunks_.load(std::memory_order_relaxed) * kChunkRecords *
           stride_ * sizeof(uint64_t);
  }

 private:
  struct Chunk {
    explicit Chunk(size_t words) : words(words) {}
    std::vector<uint64_t> words;
  };

  size_t stride_;
  std::vector<std::atomic<Chunk*>> chunks_;
  std::vector<std::unique_ptr<Chunk>> owned_;  // writer-side ownership
  std::atomic<uint64_t> size_{0};
  std::atomic<uint64_t> num_chunks_{0};
};

}  // namespace delta_internal

/// Where a live row resides relative to one delta segment: a row of the
/// base generation the segment sits on (by its RowId there), or an insert
/// of the segment itself (by its rank in the insert log).
struct RowLocation {
  bool in_delta = false;
  uint64_t index = 0;  // base-generation RowId, or delta insert rank
};

/// In-memory mutable layer over a frozen base generation: an append-only
/// insert log (full rows keyed by stable user keys) plus an append-only
/// delete log (keys, each with the row it removed). Both are packed,
/// offset-addressed and concurrently readable while the single writer
/// appends (see PackedLog); a
/// DeltaVersion pins an immutable prefix of each, which is how Snapshot
/// sees base+delta as one frozen logical dataset while mutations keep
/// landing.
///
/// The segment is schema-bound and stores what Database resolved: each
/// delete carries the RowLocation of its target at the time of the delete
/// (a RowId of this segment's base generation, or the rank of an earlier
/// insert of this segment), so folding the delta into the base needs no
/// key lookup. Database owns the key book-keeping and validation; the
/// segment is pure storage.
///
/// Writer calls (AppendInsert / AppendDelete) require external
/// serialization; all read accessors are safe concurrently with the
/// writer for indices below a captured version.
class DeltaSegment {
 public:
  explicit DeltaSegment(const Schema& schema);

  size_t num_attributes() const { return num_attrs_; }
  bool has_numerics() const { return has_numerics_; }

  /// Current published version (acquire loads). Capturing it and then
  /// reading only entries below it yields a consistent, immutable view.
  DeltaVersion version() const {
    // Deletes first: if the writer publishes between the two loads we see
    // <= the true delete count for our insert count, i.e. still a state
    // that actually existed (both logs only grow).
    DeltaVersion v;
    v.deletes = deletes_.size();
    v.inserts = inserts_.size();
    return v;
  }

  /// Appends one insert row; `values` has num_attributes() bucketed value
  /// ids, `numerics` has num_attributes() doubles (ignored / may be null
  /// when the schema has no numerics). Returns the insert's rank in the
  /// log. Single writer.
  uint64_t AppendInsert(uint64_t key, const uint32_t* values,
                        const double* numerics);

  /// Appends one delete of `key`, whose row sits at `target` (a row of this
  /// segment's base generation, or an insert already in this segment).
  /// Single writer.
  uint64_t AppendDelete(uint64_t key, RowLocation target);

  /// Read accessors for insert i (< version().inserts).
  uint64_t InsertKey(uint64_t i) const { return inserts_.At(i)[0]; }
  /// num_attributes() contiguous value ids (uint32, packed two per word).
  const uint32_t* InsertValues(uint64_t i) const {
    return reinterpret_cast<const uint32_t*>(inserts_.At(i) + 1);
  }
  /// num_attributes() contiguous doubles, or null when !has_numerics().
  const double* InsertNumerics(uint64_t i) const {
    return has_numerics_ ? reinterpret_cast<const double*>(
                               inserts_.At(i) + 1 + value_words_)
                         : nullptr;
  }

  /// Read accessors for delete i (< version().deletes): the deleted key,
  /// and where its row sat when it was deleted.
  uint64_t DeleteKey(uint64_t i) const { return deletes_.At(i)[0]; }
  RowLocation DeleteTarget(uint64_t i) const {
    const uint64_t word = deletes_.At(i)[1];
    return RowLocation{(word & 1) != 0, word >> 1};
  }

  uint64_t ApproxBytes() const {
    return inserts_.ApproxBytes() + deletes_.ApproxBytes();
  }

 private:
  size_t num_attrs_;
  bool has_numerics_;
  size_t value_words_;  // ceil(num_attrs / 2): u32 ids packed into u64s
  // Insert record: [key][values: value_words_][numerics: num_attrs_?]
  delta_internal::PackedLog inserts_;
  // Delete record: [key][target index << 1 | target in_delta]
  delta_internal::PackedLog deletes_;
  std::vector<uint64_t> scratch_;  // writer-side encode buffer
};

}  // namespace nmrs

#endif  // NMRS_DATA_DELTA_SEGMENT_H_
