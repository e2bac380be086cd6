// Assembly oracle: a columnar batch assembled from page segments
// (ColumnarBatch::Assemble over RowCodec::DecodeColumns, as the BRS/SRS
// phase-1 loads it) must equal ColumnarBatch::Build over the concatenated
// decoded rows, field by field: ids, value columns, numerics, run starts,
// run of every row, and the head columns.
//
// Inputs: seeded schemas of three shapes, with and without a numeric
// attribute drawn from a two-value pool:
// - duplicate-heavy: 1-3 attributes of 2-3 values, sorted, on small pages,
//   so runs cross one page boundary or several (a page that is one run);
// - sparse duplicates: 4 attributes of 6-9 values, a fifth of the rows
//   repeated, sorted;
// - all distinct: every row differs, unsorted.
// Each instance is checked over the real pages of a stored file, in
// phase-1 batches of random sizes and through a SegmentStore, and over
// random splits of the decoded rows into parts, empty parts included.
// Coverage checks make sure runs crossed one boundary, runs crossed
// several, and all-distinct batches occurred.
//
// Deliberately gtest-free so ci.sh can run it under ASan/UBSan with only
// instrumented code. Exits 0 when every batch matches, 1 otherwise.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/columnar_batch.h"
#include "data/dataset.h"
#include "data/segment_store.h"
#include "data/stored_dataset.h"
#include "storage/disk.h"

namespace nmrs {
namespace {

enum class Shape { kDuplicateHeavy, kSparseDuplicates, kAllDistinct };

struct Tally {
  uint64_t batches = 0;
  uint64_t mismatches = 0;
  uint64_t one_boundary_runs = 0;    // runs crossing exactly one boundary
  uint64_t multi_boundary_runs = 0;  // runs crossing two or more
  uint64_t distinct_batches = 0;
};

Dataset MakeData(Rng& rng, Shape shape, bool numeric) {
  const bool heavy = shape == Shape::kDuplicateHeavy;
  const size_t m = heavy ? 1 + rng.Uniform(3) : 4;
  Schema schema;
  for (size_t a = 0; a < m; ++a) {
    AttributeInfo info;
    info.name = "c" + std::to_string(a);
    info.cardinality = heavy ? 2 + rng.Uniform(2) : 6 + rng.Uniform(4);
    schema.AddAttribute(std::move(info));
  }
  if (numeric) {
    AttributeInfo info;
    info.name = "n";
    info.is_numeric = true;
    info.cardinality = 2;
    info.range = Interval{0.0, 10.0};
    schema.AddAttribute(std::move(info));
  }
  const size_t attrs = schema.num_attributes();
  std::vector<std::vector<ValueId>> rows;
  std::vector<double> nums;
  if (shape == Shape::kAllDistinct) {
    // Row r encodes r in mixed radix, so no two rows are equal.
    for (uint64_t r = 0; r < 6 * 7 * 8 * 9; r += 1 + rng.Uniform(3)) {
      std::vector<ValueId> v(attrs, 0);
      uint64_t code = r;
      for (size_t a = 0; a < m; ++a) {
        const size_t card =
            schema.attribute(static_cast<AttrId>(a)).cardinality;
        v[a] = static_cast<ValueId>(code % card);
        code /= card;
      }
      if (code != 0) break;
      rows.push_back(std::move(v));
      nums.push_back(2.5);
    }
  } else {
    const uint64_t n = 600 + rng.Uniform(900);
    for (uint64_t r = 0; r < n; ++r) {
      std::vector<ValueId> v(attrs, 0);
      for (size_t a = 0; a < m; ++a) {
        v[a] = static_cast<ValueId>(
            rng.Uniform(schema.attribute(static_cast<AttrId>(a)).cardinality));
      }
      const double x = rng.Bernoulli(0.7) ? 2.5 : 7.5;
      const uint64_t copies =
          1 + (!heavy && rng.Bernoulli(0.2) ? 1 + rng.Uniform(4) : 0);
      for (uint64_t c = 0; c < copies; ++c) {
        rows.push_back(v);
        nums.push_back(x);
      }
    }
    // Sorting puts equal rows next to each other, as the SRS pre-sort
    // does.
    std::vector<size_t> order(rows.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
      return rows[x] != rows[y] ? rows[x] < rows[y] : nums[x] < nums[y];
    });
    std::vector<std::vector<ValueId>> sorted_rows;
    std::vector<double> sorted_nums;
    for (size_t i : order) {
      sorted_rows.push_back(rows[i]);
      sorted_nums.push_back(nums[i]);
    }
    rows.swap(sorted_rows);
    nums.swap(sorted_nums);
  }
  Dataset data(schema);
  std::vector<double> numerics(attrs, 0.0);
  for (size_t r = 0; r < rows.size(); ++r) {
    if (numeric) {
      numerics[m] = nums[r];
      data.AppendRow(rows[r], numerics);
    } else {
      data.AppendCategoricalRow(rows[r]);
    }
  }
  return data;
}

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(x)) == 0;
}

// Field-by-field comparison; reports the first difference.
bool SameBatch(const ColumnarBatch& got, const ColumnarBatch& want,
               std::string* why) {
  auto fail = [&](const std::string& what) {
    *why = what;
    return false;
  };
  if (got.size() != want.size()) return fail("size");
  if (got.num_attrs() != want.num_attrs()) return fail("num_attrs");
  if (got.has_numerics() != want.has_numerics()) return fail("has_numerics");
  if (got.source() != nullptr) return fail("assembled batch has a source");
  const size_t n = want.size();
  for (size_t i = 0; i < n; ++i) {
    if (got.id(i) != want.id(i)) return fail("id " + std::to_string(i));
    if (got.run_of(i) != want.run_of(i)) {
      return fail("run_of " + std::to_string(i));
    }
  }
  if (got.num_runs() != want.num_runs()) return fail("num_runs");
  for (size_t r = 0; r <= want.num_runs(); ++r) {
    if (got.run_starts()[r] != want.run_starts()[r]) {
      return fail("run_starts " + std::to_string(r));
    }
  }
  for (AttrId a = 0; a < want.num_attrs(); ++a) {
    for (size_t i = 0; i < n; ++i) {
      if (got.values(a)[i] != want.values(a)[i]) {
        return fail("values " + std::to_string(a));
      }
      if (want.has_numerics() &&
          !SameBits(got.numerics(a)[i], want.numerics(a)[i])) {
        return fail("numerics " + std::to_string(a));
      }
    }
    for (size_t r = 0; r < want.num_runs(); ++r) {
      if (got.head_values(a)[r] != want.head_values(a)[r]) {
        return fail("head_values " + std::to_string(a));
      }
      if (want.has_numerics() &&
          !SameBits(got.head_numerics(a)[r], want.head_numerics(a)[r])) {
        return fail("head_numerics " + std::to_string(a));
      }
    }
  }
  return true;
}

// Counts the runs of `want` by how many part boundaries they cross;
// `bounds` holds the row offsets where parts 1.. begin.
void CountCrossings(const ColumnarBatch& want,
                    const std::vector<size_t>& bounds, Tally* tally) {
  for (size_t r = 0; r < want.num_runs(); ++r) {
    size_t crossed = 0;
    for (size_t b : bounds) {
      crossed += want.run_start(r) < b && b < want.run_start(r + 1);
    }
    tally->one_boundary_runs += crossed == 1;
    tally->multi_boundary_runs += crossed >= 2;
  }
  tally->distinct_batches += want.size() > 0 && want.num_runs() == want.size();
}

void Check(const ColumnarBatch& got, const ColumnarBatch& want,
           const std::vector<size_t>& bounds, const char* leg, uint64_t seed,
           Tally* tally) {
  ++tally->batches;
  CountCrossings(want, bounds, tally);
  std::string why;
  if (!SameBatch(got, want, &why)) {
    ++tally->mismatches;
    std::fprintf(stderr, "MISMATCH seed=%llu leg=%s: %s\n",
                 static_cast<unsigned long long>(seed), leg, why.c_str());
  }
}

void SweepInstance(uint64_t seed, Shape shape, Tally* tally) {
  Rng rng(seed);
  const bool numeric = seed % 2 == 0;
  const Dataset data = MakeData(rng, shape, numeric);
  const size_t page_sizes[] = {256, 512, 1024};
  SimulatedDisk disk(page_sizes[rng.Uniform(3)]);
  auto stored = StoredDataset::Create(&disk, data, "segments",
                                      /*checksum_pages=*/seed % 3 == 0);
  if (!stored.ok()) {
    std::fprintf(stderr, "seed %llu: %s\n",
                 static_cast<unsigned long long>(seed),
                 stored.status().ToString().c_str());
    ++tally->mismatches;
    return;
  }
  const Schema& schema = data.schema();
  const size_t m = schema.num_attributes();
  const bool has_numerics = schema.NumNumeric() > 0;
  const uint64_t pages = stored->num_pages();

  // Real pages: every page's segment equals Build over its decoded rows,
  // and phase-1 batches of random sizes, read once straight and once
  // through a store, equal Build over their concatenated rows.
  SegmentStore store(stored->file(), pages, stored->codec());
  PagedReader reader(&disk);
  for (PageId start = 0; start < pages;) {
    const PageId end = std::min<PageId>(pages, start + 1 + rng.Uniform(6));
    RowBatch rows(m, has_numerics);
    std::vector<ColumnarBatch> local(end - start);
    std::vector<const ColumnarBatch*> direct, kept;
    std::vector<size_t> bounds;
    for (PageId p = start; p < end; ++p) {
      if (p > start) bounds.push_back(rows.size());
      RowBatch page_rows(m, has_numerics);
      if (!stored->ReadPage(p, &page_rows).ok() ||
          !stored->ReadPage(p, &rows).ok()) {
        ++tally->mismatches;
        return;
      }
      auto seg = ReadSegment(*stored, &reader, p, nullptr, &local[p - start]);
      auto shared = ReadSegment(*stored, &reader, p, &store, nullptr);
      if (!seg.ok() || !shared.ok()) {
        ++tally->mismatches;
        return;
      }
      ColumnarBatch page_want;
      page_want.Build(page_rows);
      Check(**seg, page_want, {}, "page segment", seed, tally);
      direct.push_back(*seg);
      kept.push_back(*shared);
    }
    ColumnarBatch want;
    want.Build(rows);
    ColumnarBatch got;
    got.Assemble(direct);
    Check(got, want, bounds, "page batch", seed, tally);
    got.Assemble(kept);
    Check(got, want, bounds, "kept page batch", seed, tally);
    start = end;
  }
  if (store.segments_built() != pages) {
    std::fprintf(stderr, "seed %llu: store built %llu segments of %llu\n",
                 static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(store.segments_built()),
                 static_cast<unsigned long long>(pages));
    ++tally->mismatches;
  }

  // Random splits of all rows into parts of any size, empty ones included.
  RowBatch all(m, has_numerics);
  if (!stored->ReadAll(&all).ok()) {
    ++tally->mismatches;
    return;
  }
  ColumnarBatch want;
  want.Build(all);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<RowBatch> pieces;
    std::vector<size_t> bounds;
    const size_t mean = 1 + rng.Uniform(trial < 2 ? 8 : 200);
    for (size_t i = 0; i < all.size();) {
      const size_t len = std::min(all.size() - i, rng.Uniform(2 * mean + 1));
      if (i > 0 && (bounds.empty() || bounds.back() != i)) {
        bounds.push_back(i);
      }
      pieces.emplace_back(m, has_numerics);
      for (size_t j = i; j < i + len; ++j) {
        pieces.back().Append(all.id(j), all.row_values(j),
                             all.row_numerics(j));
      }
      i += len;
    }
    std::vector<ColumnarBatch> parts(pieces.size());
    std::vector<const ColumnarBatch*> ptrs;
    for (size_t k = 0; k < pieces.size(); ++k) {
      parts[k].Build(pieces[k]);
      ptrs.push_back(&parts[k]);
    }
    ColumnarBatch got;
    got.Assemble(ptrs);
    Check(got, want, bounds, "random split", seed, tally);
  }
}

}  // namespace
}  // namespace nmrs

int main() {
  using nmrs::Shape;
  nmrs::Tally tally;
  for (uint64_t seed = 1; seed <= 18; ++seed) {
    const Shape shape = seed <= 8    ? Shape::kDuplicateHeavy
                        : seed <= 14 ? Shape::kSparseDuplicates
                                     : Shape::kAllDistinct;
    nmrs::SweepInstance(seed, shape, &tally);
  }
  std::printf("segment_assembly: %llu batches, %llu mismatches; %llu runs "
              "across one boundary, %llu across several, %llu distinct "
              "batches\n",
              static_cast<unsigned long long>(tally.batches),
              static_cast<unsigned long long>(tally.mismatches),
              static_cast<unsigned long long>(tally.one_boundary_runs),
              static_cast<unsigned long long>(tally.multi_boundary_runs),
              static_cast<unsigned long long>(tally.distinct_batches));
  if (tally.one_boundary_runs == 0 || tally.multi_boundary_runs == 0 ||
      tally.distinct_batches == 0) {
    std::printf("segment_assembly: FAILED coverage: need runs across one "
                "boundary, runs across several and distinct batches\n");
    return 1;
  }
  if (tally.mismatches != 0) {
    std::printf("segment_assembly: FAILED\n");
    return 1;
  }
  std::printf("segment_assembly: OK\n");
  return 0;
}
