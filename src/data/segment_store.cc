#include "data/segment_store.h"

namespace nmrs {

SegmentStore::SegmentStore(FileId file, uint64_t num_pages,
                           const RowCodec& codec)
    : file_(file),
      num_pages_(num_pages),
      codec_(codec),
      slots_(std::make_unique<Slot[]>(num_pages)) {
  for (uint64_t p = 0; p < num_pages_; ++p) {
    slots_[p].cols.Reserve(codec_.rows_per_page(), codec_.num_attrs(),
                           codec_.has_numerics());
  }
}

const ColumnarBatch& SegmentStore::Ensure(PageId page, const Page& bytes) {
  NMRS_CHECK_LT(page, num_pages_);
  Slot& slot = slots_[page];
  if (!slot.ready.load()) {
    std::lock_guard<std::mutex> lock(slot.mu);
    if (!slot.ready.load()) {
      codec_.DecodeColumns(bytes, &slot.cols);
      built_.fetch_add(1);
      slot.ready.store(true);
    }
  }
  return slot.cols;
}

StatusOr<const ColumnarBatch*> ReadSegment(const StoredDataset& data,
                                           PagedReader* reader, PageId page,
                                           SegmentStore* store,
                                           ColumnarBatch* local) {
  Page* buf = reader->scratch_page();
  NMRS_RETURN_IF_ERROR(reader->ReadPage(data.file(), page, buf));
  if (store != nullptr && store->Keeps(data.file(), page)) {
    return &store->Ensure(page, *buf);
  }
  data.codec().DecodeColumns(*buf, local);
  return local;
}

}  // namespace nmrs
