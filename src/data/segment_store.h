#ifndef NMRS_DATA_SEGMENT_STORE_H_
#define NMRS_DATA_SEGMENT_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "common/statusor.h"
#include "data/columnar_batch.h"
#include "data/stored_dataset.h"
#include "storage/paged_reader.h"

namespace nmrs {

/// The derived columnar form of the sealed pages of one frozen file, kept
/// for the queries of one batch (docs/CACHING.md, "Segment store"). A
/// page's segment — ids, value columns, numerics, run index and head
/// columns, as RowCodec::DecodeColumns makes them — is built from the
/// bytes of the first read of that page and reused by every later reader,
/// so the batch decodes and transposes each page once. Sealed pages never
/// change (docs/MUTABILITY.md), so neither does a segment.
///
/// It keeps no bytes and serves no read: every reader still reads the page
/// through its PagedReader first (ReadSegment), so charged IO, retries,
/// verification, failover and quarantine are what they are without it.
/// Only the decode and the transpose are skipped. The batch engine gives
/// one to each shard of a block-algorithm batch whose replicas inject no
/// faults.
///
/// All memory is reserved at construction, on the constructing thread:
/// segments built later on other threads then allocate nothing, which
/// keeps the memory out of those threads' malloc arenas. Ensure is
/// thread-safe; concurrent first touches of a page build it once.
class SegmentStore {
 public:
  /// A store for pages [0, num_pages) of `file`, whose pages `codec`
  /// decodes.
  SegmentStore(FileId file, uint64_t num_pages, const RowCodec& codec);

  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  /// Whether this store keeps the segment of (file, page).
  bool Keeps(FileId file, PageId page) const {
    return file == file_ && page < num_pages_;
  }

  /// The segment of `page`. The first call decodes it from `bytes`, which
  /// must be that page's verified contents; every later call returns the
  /// kept segment and does not look at `bytes`.
  const ColumnarBatch& Ensure(PageId page, const Page& bytes);

  /// Segments built so far: the number of distinct pages read through
  /// the store.
  uint64_t segments_built() const { return built_.load(); }

 private:
  // `ready` is set, under `mu`, once `cols` holds the page's segment;
  // after that `cols` is only read.
  struct Slot {
    std::mutex mu;
    std::atomic<bool> ready{false};
    ColumnarBatch cols;
  };

  FileId file_;
  uint64_t num_pages_;
  RowCodec codec_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> built_{0};
};

/// Reads page `page` of `data` through `reader` — the charged read, under
/// every retry, verification, failover and quarantine rule of PagedReader
/// — and returns the page's columnar segment: the one `store` keeps when
/// it keeps that page, else one decoded into `local`. `store` may be null.
/// The result stays valid while the store, or `local`, is unchanged.
StatusOr<const ColumnarBatch*> ReadSegment(const StoredDataset& data,
                                           PagedReader* reader, PageId page,
                                           SegmentStore* store,
                                           ColumnarBatch* local);

}  // namespace nmrs

#endif  // NMRS_DATA_SEGMENT_STORE_H_
