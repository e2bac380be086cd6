#include "altree/al_tree.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace nmrs {

ALTree::ALTree(const Schema& schema, std::vector<AttrId> attr_order)
    : schema_(schema),
      attr_order_(std::move(attr_order)),
      numeric_stride_(schema.NumNumeric() > 0 ? schema.num_attributes() : 0) {
  NMRS_CHECK_GT(attr_order_.size(), 0u);
  NMRS_CHECK_EQ(attr_order_.size(), schema.num_attributes());
  Clear();
}

void ALTree::Clear() {
  value_.assign(1, kInvalidValueId);
  level_.assign(1, kRootLevel);
  descendants_.assign(1, 0);
  parent_.assign(1, kRootId);
  children_.assign(1, {});
  leaf_range_.assign(1, LeafRange{0, 0, 0});
  row_arena_.clear();
  numeric_arena_.clear();
  free_ranges_.clear();
  cursor_.clear();
}

ALTree::NodeId ALTree::FindChild(NodeId parent, ValueId value) const {
  for (const ChildRef& c : children_[parent]) {
    if (c.value == value) return c.id;
  }
  return kInvalidNode;
}

ALTree::NodeId ALTree::FindOrAddChild(NodeId parent, ValueId value,
                                      uint32_t level) {
  NodeId found = FindChild(parent, value);
  if (found != kInvalidNode) return found;
  NodeId id = static_cast<NodeId>(value_.size());
  value_.push_back(value);
  level_.push_back(level);
  descendants_.push_back(0);
  parent_.push_back(parent);
  children_.emplace_back();
  leaf_range_.push_back(LeafRange{0, 0, 0});
  children_[parent].push_back(ChildRef{id, value});
  return id;
}

void ALTree::Insert(RowId id, const ValueId* values, const double* numerics) {
  const uint32_t m = static_cast<uint32_t>(attr_order_.size());
  ++descendants_[kRootId];
  // Follow the cursor while this object's values match its path.
  uint32_t level = 0;
  for (; level < cursor_.size(); ++level) {
    const NodeId n = cursor_[level];
    if (value_[n] != values[attr_order_[level]]) break;
    ++descendants_[n];
  }
  NodeId cur = level == 0 ? kRootId : cursor_[level - 1];
  cursor_.resize(m);
  for (; level < m; ++level) {
    cur = FindOrAddChild(cur, values[attr_order_[level]], level);
    ++descendants_[cur];
    cursor_[level] = cur;
  }
  NMRS_DCHECK(numeric_stride_ == 0 || numerics != nullptr);
  AppendLeafEntry(cursor_[m - 1], id, numerics);
}

void ALTree::AppendLeafEntry(NodeId leaf, RowId id, const double* numerics) {
  LeafRange& r = leaf_range_[leaf];
  if (r.count == r.capacity) {
    if (r.capacity > 0 && r.begin + r.capacity == row_arena_.size()) {
      // The range ends the arena (sorted input): grow it in place.
      row_arena_.push_back(id);
      numeric_arena_.insert(numeric_arena_.end(), numerics,
                            numerics + numeric_stride_);
      ++r.capacity;
      ++r.count;
      return;
    }
    MoveLeafRange(r);
  }
  const size_t slot = size_t{r.begin} + r.count;
  row_arena_[slot] = id;
  std::copy_n(numerics, numeric_stride_,
              numeric_arena_.begin() +
                  static_cast<ptrdiff_t>(slot * numeric_stride_));
  ++r.count;
}

void ALTree::MoveLeafRange(LeafRange& r) {
  // The new range is a power of two above the count: a freed range of that
  // class when one exists, else fresh space at the arena's end.
  const size_t cls = static_cast<size_t>(std::bit_width(r.count));
  const size_t capacity = size_t{1} << cls;
  size_t begin;
  if (cls < free_ranges_.size() && !free_ranges_[cls].empty()) {
    begin = free_ranges_[cls].back();
    free_ranges_[cls].pop_back();
  } else {
    begin = row_arena_.size();
    NMRS_CHECK_LE(begin + capacity,
                  size_t{std::numeric_limits<uint32_t>::max()})
        << "AL-Tree leaf arena exceeds 32-bit offsets";
    row_arena_.resize(begin + capacity);
    numeric_arena_.resize((begin + capacity) * numeric_stride_);
  }
  std::copy_n(row_arena_.begin() + r.begin, r.count,
              row_arena_.begin() + static_cast<ptrdiff_t>(begin));
  std::copy_n(
      numeric_arena_.begin() + static_cast<ptrdiff_t>(r.begin * numeric_stride_),
      r.count * numeric_stride_,
      numeric_arena_.begin() + static_cast<ptrdiff_t>(begin * numeric_stride_));
  if (r.capacity > 0) {
    // Class k holds freed ranges of capacity at least 2^k.
    const size_t old_cls = static_cast<size_t>(std::bit_width(r.capacity)) - 1;
    if (free_ranges_.size() <= old_cls) free_ranges_.resize(old_cls + 1);
    free_ranges_[old_cls].push_back(r.begin);
  }
  r.begin = static_cast<uint32_t>(begin);
  r.capacity = static_cast<uint32_t>(capacity);
}

size_t ALTree::MemoryBytes() const {
  size_t bytes =
      num_nodes() * (sizeof(ValueId) + sizeof(uint32_t) + sizeof(uint64_t) +
                     sizeof(NodeId) + sizeof(std::vector<ChildRef>) +
                     sizeof(LeafRange));
  for (const auto& kids : children_) {
    bytes += kids.capacity() * sizeof(ChildRef);
  }
  bytes += row_arena_.capacity() * sizeof(RowId) +
           numeric_arena_.capacity() * sizeof(double) +
           cursor_.capacity() * sizeof(NodeId);
  for (const auto& ranges : free_ranges_) {
    bytes += ranges.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

void ALTree::PrepareForSearch() {
  for (auto& kids : children_) {
    std::sort(kids.begin(), kids.end(),
              [this](const ChildRef& a, const ChildRef& b) {
                return descendants_[a.id] < descendants_[b.id];
              });
  }
  if (!free_ranges_.empty()) CompactLeafArenas();
}

void ALTree::CompactLeafArenas() {
  size_t live = 0;
  for (const LeafRange& r : leaf_range_) live += r.count;
  std::vector<RowId> rows;
  std::vector<double> nums;
  rows.reserve(live);
  nums.reserve(live * numeric_stride_);
  for (LeafRange& r : leaf_range_) {
    const auto old_rows = row_arena_.begin() + r.begin;
    const auto old_nums = numeric_arena_.begin() +
                          static_cast<ptrdiff_t>(r.begin * numeric_stride_);
    const uint32_t begin = static_cast<uint32_t>(rows.size());
    rows.insert(rows.end(), old_rows, old_rows + r.count);
    nums.insert(nums.end(), old_nums,
                old_nums + static_cast<ptrdiff_t>(r.count * numeric_stride_));
    r.begin = begin;
    r.capacity = r.count;
  }
  row_arena_.swap(rows);
  numeric_arena_.swap(nums);
  free_ranges_.clear();
}

void ALTree::AddToPathCounts(NodeId leaf, int64_t delta) {
  NodeId cur = leaf;
  for (;;) {
    const int64_t updated = static_cast<int64_t>(descendants_[cur]) + delta;
    NMRS_DCHECK(updated >= 0);
    descendants_[cur] = static_cast<uint64_t>(updated);
    if (cur == kRootId) break;
    cur = parent_[cur];
  }
}

ALTree::NodeId ALTree::FindLeaf(const ValueId* values) const {
  NodeId cur = kRootId;
  for (uint32_t level = 0; level < attr_order_.size(); ++level) {
    cur = FindChild(cur, values[attr_order_[level]]);
    if (cur == kInvalidNode) return kInvalidNode;
  }
  return cur;
}

void ALTree::RemoveLeaf(NodeId leaf) {
  NMRS_DCHECK(IsLeaf(leaf));
  const int64_t count = static_cast<int64_t>(descendants_[leaf]);
  if (count > 0) AddToPathCounts(leaf, -count);
  leaf_range_[leaf].count = 0;
}

void ALTree::RemoveLeafEntry(NodeId leaf, size_t entry) {
  NMRS_DCHECK(IsLeaf(leaf));
  LeafRange& r = leaf_range_[leaf];
  NMRS_CHECK_LT(entry, size_t{r.count});
  // Close the gap inside the leaf's range; other leaves never move.
  const auto rows = row_arena_.begin() + r.begin;
  std::copy(rows + static_cast<ptrdiff_t>(entry) + 1, rows + r.count,
            rows + static_cast<ptrdiff_t>(entry));
  if (numeric_stride_ > 0) {
    const auto nums = numeric_arena_.begin() +
                      static_cast<ptrdiff_t>(r.begin * numeric_stride_);
    std::copy(nums + static_cast<ptrdiff_t>((entry + 1) * numeric_stride_),
              nums + static_cast<ptrdiff_t>(r.count * numeric_stride_),
              nums + static_cast<ptrdiff_t>(entry * numeric_stride_));
  }
  --r.count;
  AddToPathCounts(leaf, -1);
}

}  // namespace nmrs
