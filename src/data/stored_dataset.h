#ifndef NMRS_DATA_STORED_DATASET_H_
#define NMRS_DATA_STORED_DATASET_H_

#include <cstring>
#include <string>

#include "common/check.h"
#include "common/status.h"
#include "common/statusor.h"
#include "data/columnar_batch.h"
#include "data/dataset.h"
#include "data/object.h"
#include "data/schema.h"
#include "storage/disk.h"
#include "storage/paged_reader.h"

namespace nmrs {

/// Fixed-width row codec for one page.
///
/// Page layout:   [uint32 row_count][row]*[crc32c]?
/// Row layout:    [uint64 row_id][uint32 value_id × m][double × m]?
/// The trailing doubles are present only when the schema has numeric
/// attributes (exact values needed by the phase-2 refinement of §6).
///
/// With `checksum` set, the last Page::kChecksumFooterBytes of the page are
/// reserved for the CRC-32C footer stamped by Page::Seal — rows_per_page()
/// shrinks accordingly, which is why checksumming is opt-in: it changes the
/// page layout and therefore the IO counts of every algorithm.
class RowCodec {
 public:
  RowCodec(const Schema& schema, size_t page_size, bool checksum = false);

  size_t row_bytes() const { return row_bytes_; }
  size_t rows_per_page() const { return rows_per_page_; }
  size_t num_attrs() const { return num_attrs_; }
  bool has_numerics() const { return has_numerics_; }
  bool checksum() const { return checksum_; }

  /// Pages needed to hold `rows` rows.
  uint64_t PagesFor(uint64_t rows) const {
    return (rows + rows_per_page_ - 1) / rows_per_page_;
  }

  /// Encodes one row at `offset` slots into the page.
  void EncodeRow(Page* page, size_t slot, RowId id, const ValueId* values,
                 const double* numerics) const;
  void SetRowCount(Page* page, uint32_t count) const;
  uint32_t GetRowCount(const Page& page) const;

  /// The row_bytes() encoded bytes of row `slot` of `page`, in place. Row
  /// offsets are not 8-byte aligned: read fields through memcpy.
  const uint8_t* RowBytes(const Page& page, size_t slot) const {
    return page.data() + sizeof(uint32_t) + slot * row_bytes_;
  }

  /// Copies one encoded row of this layout into `slot` of `page`, then
  /// overwrites its id with `id`: the other fields move as bytes.
  void CopyRow(Page* page, size_t slot, RowId id, const uint8_t* row) const {
    NMRS_DCHECK(slot < rows_per_page_);
    uint8_t* p = page->data() + sizeof(uint32_t) + slot * row_bytes_;
    std::memcpy(p, row, row_bytes_);
    std::memcpy(p, &id, sizeof(id));
  }

  /// Appends all rows of `page` to `out`.
  void DecodePage(const Page& page, RowBatch* out) const;

  /// Decodes the rows of `page` straight into columns, replacing `out`'s
  /// contents: the page's columnar segment, run index included, with no
  /// source batch. Equal to DecodePage followed by ColumnarBatch::Build.
  void DecodeColumns(const Page& page, ColumnarBatch* out) const;

 private:
  size_t num_attrs_;
  bool has_numerics_;
  bool checksum_;
  size_t page_size_;
  size_t row_bytes_;
  size_t rows_per_page_;
};

class StoredDataset;

/// Streams rows onto a disk file page by page; used both to materialize a
/// Dataset and to spill phase-1 survivors / sort runs.
class RowWriter {
 public:
  /// Writing starts at the current end of `file`. With `checksum` set,
  /// every page written (full, partial, or final) is sealed with a CRC-32C
  /// footer so readers with verify_checksums on can check integrity.
  RowWriter(SimulatedDisk* disk, FileId file, const Schema& schema,
            bool checksum = false);

  Status Add(RowId id, const ValueId* values, const double* numerics);
  Status AddObject(RowId id, const Object& obj);

  /// Appends a row already encoded in this writer's layout (RowCodec of
  /// the same schema and checksum setting), renumbered to `id`.
  Status AddEncoded(RowId id, const uint8_t* row) {
    NMRS_CHECK(!finished_);
    codec_.CopyRow(&current_, slot_, id, row);
    return CommitSlot();
  }

  /// Writes the in-progress partial page to disk without sealing it:
  /// subsequent Adds keep filling the same page and re-write it when full.
  /// Two-phase algorithms call this at the end of every phase-1 batch so
  /// the disk arm really travels to the scratch area per batch ("random
  /// accesses to go and write out the results at the end of processing
  /// each batch", paper §4.1) — a buffered writer would hide that cost.
  Status FlushPartial();

  /// Flushes the partial page (if any). Must be called before reading.
  Status Finish();

  uint64_t rows_written() const { return rows_written_; }

 private:
  /// Publishes the slot just encoded: the one append path of Add and
  /// AddEncoded. Writes the page out once it is full.
  Status CommitSlot() {
    ++slot_;
    ++rows_written_;
    return slot_ == codec_.rows_per_page() ? WriteFullPage() : Status::OK();
  }
  Status WriteFullPage();

  SimulatedDisk* disk_;
  FileId file_;
  RowCodec codec_;
  Page current_;
  size_t slot_ = 0;
  PageId next_page_ = 0;        // where `current_` will land
  bool partial_on_disk_ = false;  // current_ already written (partially)
  uint64_t rows_written_ = 0;
  bool finished_ = false;
};

/// A dataset materialized on a SimulatedDisk, readable page by page with IO
/// accounting. Does not own the disk.
class StoredDataset {
 public:
  /// Serializes `data` into a newly created file named `name`. With
  /// `checksum_pages` set, every page carries a CRC-32C footer.
  static StatusOr<StoredDataset> Create(SimulatedDisk* disk,
                                        const Dataset& data, std::string name,
                                        bool checksum_pages = false);

  /// Wraps an existing file previously produced through a RowWriter with the
  /// same schema. `checksum_pages` must match what the writer used (it
  /// changes rows_per_page and therefore page addressing).
  StoredDataset(SimulatedDisk* disk, FileId file, Schema schema,
                uint64_t num_rows, bool checksum_pages = false);

  SimulatedDisk* disk() const { return disk_; }
  FileId file() const { return file_; }
  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return num_rows_; }
  uint64_t num_pages() const { return disk_->NumPages(file_); }
  const RowCodec& codec() const { return codec_; }
  bool checksum_pages() const { return codec_.checksum(); }

  /// Reads and decodes page `page`, appending its rows to `out`.
  Status ReadPage(PageId page, RowBatch* out) const;

  /// Like ReadPage but routed through `reader`, so a buffer pool (when the
  /// reader carries one) can serve the page from memory. `reader` must wrap
  /// this dataset's disk or a DiskView over it. With a pool-less reader
  /// this is exactly ReadPage.
  Status ReadPageVia(PagedReader* reader, PageId page, RowBatch* out) const;

  /// Reads the entire file into one batch (testing / tiny datasets).
  Status ReadAll(RowBatch* out) const;

 private:
  SimulatedDisk* disk_;
  FileId file_;
  Schema schema_;
  uint64_t num_rows_;
  RowCodec codec_;
};

}  // namespace nmrs

#endif  // NMRS_DATA_STORED_DATASET_H_
