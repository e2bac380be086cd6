#include "data/delta_segment.h"

#include <cstring>

namespace nmrs {
namespace delta_internal {

uint64_t PackedLog::Append(const uint64_t* words) {
  const uint64_t i = size_.load(std::memory_order_relaxed);
  const uint64_t chunk_idx = i / kChunkRecords;
  NMRS_CHECK(chunk_idx < kMaxChunks) << "PackedLog full (compaction overdue)";
  Chunk* chunk = chunks_[chunk_idx].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    owned_.push_back(std::make_unique<Chunk>(kChunkRecords * stride_));
    chunk = owned_.back().get();
    chunks_[chunk_idx].store(chunk, std::memory_order_release);
    num_chunks_.store(owned_.size(), std::memory_order_relaxed);
  }
  std::memcpy(chunk->words.data() + (i % kChunkRecords) * stride_, words,
              stride_ * sizeof(uint64_t));
  size_.store(i + 1, std::memory_order_release);
  return i;
}

}  // namespace delta_internal

DeltaSegment::DeltaSegment(const Schema& schema)
    : num_attrs_(schema.num_attributes()),
      has_numerics_(schema.NumNumeric() > 0),
      value_words_((num_attrs_ + 1) / 2),
      inserts_(1 + value_words_ + (has_numerics_ ? num_attrs_ : 0)),
      deletes_(2),
      scratch_(inserts_.stride(), 0) {}

uint64_t DeltaSegment::AppendInsert(uint64_t key, const uint32_t* values,
                                    const double* numerics) {
  scratch_.assign(scratch_.size(), 0);
  scratch_[0] = key;
  std::memcpy(scratch_.data() + 1, values, num_attrs_ * sizeof(uint32_t));
  if (has_numerics_) {
    NMRS_DCHECK(numerics != nullptr);
    std::memcpy(scratch_.data() + 1 + value_words_, numerics,
                num_attrs_ * sizeof(double));
  }
  return inserts_.Append(scratch_.data());
}

uint64_t DeltaSegment::AppendDelete(uint64_t key, RowLocation target) {
  NMRS_CHECK(target.index >> 63 == 0) << "delete target index out of range";
  const uint64_t record[2] = {key,
                              target.index << 1 | (target.in_delta ? 1 : 0)};
  return deletes_.Append(record);
}

}  // namespace nmrs
