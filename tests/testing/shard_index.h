#ifndef NMRS_TESTS_TESTING_SHARD_INDEX_H_
#define NMRS_TESTS_TESTING_SHARD_INDEX_H_

// Header-only, so the gtest-free binaries (chaos_soak, resident_trs) use it
// as well as the gtest suites.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "altree/al_tree.h"
#include "common/check.h"
#include "core/query.h"
#include "core/shard_exchange.h"
#include "data/stored_dataset.h"
#include "storage/disk_view.h"

namespace nmrs {
namespace testing {

/// The read-only AL-Tree a QueryEngine keeps for one shard
/// (BuildShardIndexWithin `budget_bytes` over `data`, levels in
/// `attr_order`), built through a fresh clean view. `logical_bytes` is the
/// tree's size when it `fits`, or the loaded prefix's when it does not. A
/// TRS engine charges `io` to its first batch's total_io and to no query:
/// with one active shard it builds under RSOptions::memory, and answers the
/// shard resident iff the tree fits; with more it builds without a budget.
struct ShardIndexBuild {
  bool fits = false;
  size_t logical_bytes = 0;
  IoStats io;
};

inline ShardIndexBuild BuildShardIndexForTest(
    const StoredDataset& data, const std::vector<AttrId>& attr_order,
    uint64_t budget_bytes = ~uint64_t{0}) {
  DiskView view(data.disk());
  const StoredDataset local(&view, data.file(), data.schema(),
                            data.num_rows(), data.checksum_pages());
  ResiliencePolicy policy;
  policy.checksum_pages = data.checksum_pages();
  PagedReader reader = MakeReader(&view, policy);
  ALTree tree(data.schema(), attr_order);
  StatusOr<bool> fits =
      BuildShardIndexWithin(local, &reader, budget_bytes, &tree);
  NMRS_CHECK(fits.ok());
  ShardIndexBuild out;
  out.fits = *fits;
  out.logical_bytes = tree.LogicalMemoryBytes();
  out.io = view.stats();
  reader.FoldStatsInto(&out.io);
  return out;
}

}  // namespace testing
}  // namespace nmrs

#endif  // NMRS_TESTS_TESTING_SHARD_INDEX_H_
