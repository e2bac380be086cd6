#include "data/stored_dataset.h"

#include <cstring>

namespace nmrs {

namespace {

template <typename T>
void StoreRaw(uint8_t* dst, T v) {
  std::memcpy(dst, &v, sizeof(T));
}

template <typename T>
T LoadRaw(const uint8_t* src) {
  T v;
  std::memcpy(&v, src, sizeof(T));
  return v;
}

}  // namespace

RowCodec::RowCodec(const Schema& schema, size_t page_size, bool checksum)
    : num_attrs_(schema.num_attributes()),
      has_numerics_(schema.NumNumeric() > 0),
      checksum_(checksum),
      page_size_(page_size) {
  row_bytes_ = sizeof(uint64_t) + num_attrs_ * sizeof(uint32_t) +
               (has_numerics_ ? num_attrs_ * sizeof(double) : 0);
  const size_t usable =
      page_size_ - (checksum_ ? Page::kChecksumFooterBytes : 0);
  NMRS_CHECK_GT(usable, sizeof(uint32_t) + row_bytes_)
      << "page size " << page_size_ << " cannot hold a single row of "
      << row_bytes_ << " bytes";
  rows_per_page_ = (usable - sizeof(uint32_t)) / row_bytes_;
}

void RowCodec::EncodeRow(Page* page, size_t slot, RowId id,
                         const ValueId* values,
                         const double* numerics) const {
  NMRS_DCHECK(slot < rows_per_page_);
  uint8_t* p = page->data() + sizeof(uint32_t) + slot * row_bytes_;
  StoreRaw<uint64_t>(p, id);
  p += sizeof(uint64_t);
  for (size_t i = 0; i < num_attrs_; ++i) {
    StoreRaw<uint32_t>(p, values[i]);
    p += sizeof(uint32_t);
  }
  if (has_numerics_) {
    NMRS_DCHECK(numerics != nullptr);
    for (size_t i = 0; i < num_attrs_; ++i) {
      StoreRaw<double>(p, numerics[i]);
      p += sizeof(double);
    }
  }
}

void RowCodec::SetRowCount(Page* page, uint32_t count) const {
  StoreRaw<uint32_t>(page->data(), count);
}

uint32_t RowCodec::GetRowCount(const Page& page) const {
  return LoadRaw<uint32_t>(page.data());
}

void RowCodec::DecodePage(const Page& page, RowBatch* out) const {
  const uint32_t count = GetRowCount(page);
  NMRS_CHECK_LE(count, rows_per_page_);
  static_assert(sizeof(ValueId) == sizeof(uint32_t) && sizeof(RowId) == 8);
  // The row layout stores ids, value ids and doubles in native byte order,
  // so each field group is one copy into the batch's arrays.
  NMRS_DCHECK(out->num_attrs() == num_attrs_);
  const bool numerics = has_numerics_ && out->has_numerics();
  const size_t first = out->Grow(count);
  const size_t value_bytes = num_attrs_ * sizeof(uint32_t);
  const size_t numeric_bytes = num_attrs_ * sizeof(double);
  RowId* ids = out->mutable_ids();
  const uint8_t* p = page.data() + sizeof(uint32_t);
  for (uint32_t r = 0; r < count; ++r, p += row_bytes_) {
    const size_t row = first + r;
    ids[row] = LoadRaw<uint64_t>(p);
    std::memcpy(out->mutable_row_values(row), p + sizeof(uint64_t),
                value_bytes);
    if (numerics) {
      std::memcpy(out->mutable_row_numerics(row),
                  p + sizeof(uint64_t) + value_bytes, numeric_bytes);
    }
  }
}

void RowCodec::DecodeColumns(const Page& page, ColumnarBatch* out) const {
  const uint32_t count = GetRowCount(page);
  NMRS_CHECK_LE(count, rows_per_page_);
  out->Resize(count, num_attrs_, has_numerics_);
  RowId* ids = out->mutable_ids();
  const uint8_t* rows = page.data() + sizeof(uint32_t);
  for (uint32_t r = 0; r < count; ++r) {
    ids[r] = LoadRaw<uint64_t>(rows + r * row_bytes_);
  }
  // Field by field, so each column is written front to back.
  const uint8_t* field = rows + sizeof(uint64_t);
  for (size_t a = 0; a < num_attrs_; ++a, field += sizeof(uint32_t)) {
    ValueId* col = out->mutable_values(static_cast<AttrId>(a));
    for (uint32_t r = 0; r < count; ++r) {
      col[r] = LoadRaw<uint32_t>(field + r * row_bytes_);
    }
  }
  if (has_numerics_) {
    for (size_t a = 0; a < num_attrs_; ++a, field += sizeof(double)) {
      double* col = out->mutable_numerics(static_cast<AttrId>(a));
      for (uint32_t r = 0; r < count; ++r) {
        col[r] = LoadRaw<double>(field + r * row_bytes_);
      }
    }
  }
  out->IndexRuns();
}

RowWriter::RowWriter(SimulatedDisk* disk, FileId file, const Schema& schema,
                     bool checksum)
    : disk_(disk),
      file_(file),
      codec_(schema, disk->page_size(), checksum),
      current_(disk->page_size()),
      next_page_(disk->NumPages(file)) {}

Status RowWriter::Add(RowId id, const ValueId* values,
                      const double* numerics) {
  NMRS_CHECK(!finished_);
  codec_.EncodeRow(&current_, slot_, id, values, numerics);
  return CommitSlot();
}

Status RowWriter::WriteFullPage() {
  codec_.SetRowCount(&current_, static_cast<uint32_t>(slot_));
  if (codec_.checksum()) current_.Seal();
  NMRS_RETURN_IF_ERROR(disk_->WritePage(file_, next_page_, current_));
  current_ = Page(disk_->page_size());
  slot_ = 0;
  ++next_page_;
  partial_on_disk_ = false;
  return Status::OK();
}

Status RowWriter::AddObject(RowId id, const Object& obj) {
  return Add(id, obj.values.data(),
             codec_.has_numerics() ? obj.numerics.data() : nullptr);
}

Status RowWriter::FlushPartial() {
  NMRS_CHECK(!finished_);
  if (slot_ == 0) return Status::OK();
  codec_.SetRowCount(&current_, static_cast<uint32_t>(slot_));
  if (codec_.checksum()) current_.Seal();
  NMRS_RETURN_IF_ERROR(disk_->WritePage(file_, next_page_, current_));
  partial_on_disk_ = true;
  return Status::OK();
}

Status RowWriter::Finish() {
  NMRS_CHECK(!finished_);
  finished_ = true;
  if (slot_ > 0) {
    codec_.SetRowCount(&current_, static_cast<uint32_t>(slot_));
    if (codec_.checksum()) current_.Seal();
    NMRS_RETURN_IF_ERROR(disk_->WritePage(file_, next_page_, current_));
    slot_ = 0;
  }
  return Status::OK();
}

StatusOr<StoredDataset> StoredDataset::Create(SimulatedDisk* disk,
                                              const Dataset& data,
                                              std::string name,
                                              bool checksum_pages) {
  FileId file = disk->CreateFile(std::move(name));
  RowWriter writer(disk, file, data.schema(), checksum_pages);
  for (RowId r = 0; r < data.num_rows(); ++r) {
    NMRS_RETURN_IF_ERROR(
        writer.Add(r, data.RowValues(r), data.RowNumerics(r)));
  }
  NMRS_RETURN_IF_ERROR(writer.Finish());
  return StoredDataset(disk, file, data.schema(), data.num_rows(),
                       checksum_pages);
}

StoredDataset::StoredDataset(SimulatedDisk* disk, FileId file, Schema schema,
                             uint64_t num_rows, bool checksum_pages)
    : disk_(disk),
      file_(file),
      schema_(std::move(schema)),
      num_rows_(num_rows),
      codec_(schema_, disk->page_size(), checksum_pages) {}

Status StoredDataset::ReadPage(PageId page, RowBatch* out) const {
  Page buf(disk_->page_size());
  NMRS_RETURN_IF_ERROR(disk_->ReadPage(file_, page, &buf));
  codec_.DecodePage(buf, out);
  return Status::OK();
}

Status StoredDataset::ReadPageVia(PagedReader* reader, PageId page,
                                  RowBatch* out) const {
  Page* buf = reader->scratch_page();
  NMRS_RETURN_IF_ERROR(reader->ReadPage(file_, page, buf));
  codec_.DecodePage(*buf, out);
  return Status::OK();
}

Status StoredDataset::ReadAll(RowBatch* out) const {
  const uint64_t pages = num_pages();
  out->Reserve(num_rows_);
  Page buf(disk_->page_size());
  for (PageId p = 0; p < pages; ++p) {
    NMRS_RETURN_IF_ERROR(disk_->ReadPage(file_, p, &buf));
    codec_.DecodePage(buf, out);
  }
  return Status::OK();
}

}  // namespace nmrs
