// Tree-identity check for the AL-Tree's one-pass bulk load (path cursor +
// flat leaf arenas). Every tree is compared node for node against a
// test-local reference: a plain per-node-vector AL-Tree that walks the whole
// path with a child-list search at every level and keeps one std::vector of
// row ids (and one of numerics) per leaf. The fields compared are value,
// level, parent, descendant count, child order, and the leaf rows and
// numerics in order.
//
// Inputs: seeded rows with many duplicates, with and without numeric
// attributes, in sorted, reverse-sorted, shuffled and run-interleaved
// order. Steps: inserts, Clear() reuse, a copy taken mid-build, then
// seeded RemoveLeaf, RemoveLeafEntry and further inserts, with a
// comparison after every step.
//
// Deliberately gtest-free so ci.sh can run it under ASan/UBSan with only
// instrumented code (the arena offsets are what that build watches). Exits
// 0 on success, aborts on the first difference.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "altree/al_tree.h"
#include "common/check.h"
#include "common/rng.h"
#include "data/schema.h"

namespace nmrs {
namespace {

using NodeId = ALTree::NodeId;

// The reference: every Insert walks root to leaf through FindOrAddChild,
// and each leaf owns its own vectors.
class ReferenceTree {
 public:
  ReferenceTree(std::vector<AttrId> attr_order, size_t numeric_stride)
      : attr_order_(std::move(attr_order)),
        numeric_stride_(numeric_stride) {
    Clear();
  }

  void Clear() {
    value_.assign(1, kInvalidValueId);
    level_.assign(1, ALTree::kRootLevel);
    descendants_.assign(1, 0);
    parent_.assign(1, ALTree::kRootId);
    children_.assign(1, {});
    rows_.assign(1, {});
    numerics_.assign(1, {});
  }

  void Insert(RowId id, const ValueId* values, const double* numerics) {
    NodeId cur = ALTree::kRootId;
    ++descendants_[cur];
    for (uint32_t level = 0; level < attr_order_.size(); ++level) {
      cur = FindOrAddChild(cur, values[attr_order_[level]], level);
      ++descendants_[cur];
    }
    rows_[cur].push_back(id);
    numerics_[cur].insert(numerics_[cur].end(), numerics,
                          numerics + numeric_stride_);
  }

  void PrepareForSearch() {
    for (auto& kids : children_) {
      std::sort(kids.begin(), kids.end(),
                [this](const ALTree::ChildRef& a, const ALTree::ChildRef& b) {
                  return descendants_[a.id] < descendants_[b.id];
                });
    }
  }

  void RemoveLeaf(NodeId leaf) {
    AddToPath(leaf, -static_cast<int64_t>(descendants_[leaf]));
    rows_[leaf].clear();
    numerics_[leaf].clear();
  }
  void RemoveLeafEntry(NodeId leaf, size_t entry) {
    rows_[leaf].erase(rows_[leaf].begin() + static_cast<ptrdiff_t>(entry));
    const auto begin = numerics_[leaf].begin() +
                       static_cast<ptrdiff_t>(entry * numeric_stride_);
    numerics_[leaf].erase(begin,
                          begin + static_cast<ptrdiff_t>(numeric_stride_));
    AddToPath(leaf, -1);
  }

  size_t num_nodes() const { return value_.size(); }
  bool IsLeaf(NodeId n) const { return level_[n] + 1 == attr_order_.size(); }
  const std::vector<RowId>& Rows(NodeId n) const { return rows_[n]; }

  // Both trees are compared field by field; any difference aborts.
  void ExpectSame(const ALTree& t, const char* step) const {
    NMRS_CHECK_EQ(t.num_nodes(), num_nodes()) << step;
    NMRS_CHECK_EQ(t.num_objects(), descendants_[ALTree::kRootId]) << step;
    for (NodeId n = 0; n < num_nodes(); ++n) {
      NMRS_CHECK_EQ(t.Value(n), value_[n]) << step << " node " << n;
      NMRS_CHECK_EQ(t.Level(n), level_[n]) << step << " node " << n;
      NMRS_CHECK_EQ(t.Parent(n), parent_[n]) << step << " node " << n;
      NMRS_CHECK_EQ(t.Descendants(n), descendants_[n])
          << step << " node " << n;
      const auto& kids = t.Children(n);
      NMRS_CHECK_EQ(kids.size(), children_[n].size())
          << step << " node " << n;
      for (size_t i = 0; i < kids.size(); ++i) {
        NMRS_CHECK_EQ(kids[i].id, children_[n][i].id) << step << " node " << n;
        NMRS_CHECK_EQ(kids[i].value, children_[n][i].value)
            << step << " node " << n;
      }
      if (n == ALTree::kRootId || !IsLeaf(n)) continue;
      NMRS_CHECK(t.IsLeaf(n)) << step << " node " << n;
      const auto rows = t.LeafRows(n);
      NMRS_CHECK_EQ(rows.size(), rows_[n].size()) << step << " leaf " << n;
      for (size_t i = 0; i < rows.size(); ++i) {
        NMRS_CHECK_EQ(rows[i], rows_[n][i]) << step << " leaf " << n;
        if (numeric_stride_ == 0) continue;
        const double* got = t.LeafNumerics(n, i);
        for (size_t a = 0; a < numeric_stride_; ++a) {
          NMRS_CHECK(got[a] == numerics_[n][i * numeric_stride_ + a])
              << step << " leaf " << n << " entry " << i;
        }
      }
    }
  }

 private:
  NodeId FindOrAddChild(NodeId parent, ValueId value, uint32_t level) {
    for (const ALTree::ChildRef& c : children_[parent]) {
      if (c.value == value) return c.id;
    }
    const NodeId id = static_cast<NodeId>(value_.size());
    value_.push_back(value);
    level_.push_back(level);
    descendants_.push_back(0);
    parent_.push_back(parent);
    children_.emplace_back();
    rows_.emplace_back();
    numerics_.emplace_back();
    children_[parent].push_back(ALTree::ChildRef{id, value});
    return id;
  }

  void AddToPath(NodeId leaf, int64_t delta) {
    for (NodeId cur = leaf;; cur = parent_[cur]) {
      descendants_[cur] =
          static_cast<uint64_t>(static_cast<int64_t>(descendants_[cur]) + delta);
      if (cur == ALTree::kRootId) break;
    }
  }

  std::vector<AttrId> attr_order_;
  size_t numeric_stride_;
  std::vector<ValueId> value_;
  std::vector<uint32_t> level_;
  std::vector<uint64_t> descendants_;
  std::vector<NodeId> parent_;
  std::vector<std::vector<ALTree::ChildRef>> children_;
  std::vector<std::vector<RowId>> rows_;
  std::vector<std::vector<double>> numerics_;
};

struct Row {
  RowId id;
  std::vector<ValueId> values;
  std::vector<double> numerics;  // empty without numeric attributes
};

struct Input {
  Schema schema;
  std::vector<AttrId> attr_order;
  std::vector<Row> rows;
};

// Small cardinalities give many duplicate leaves and shared prefixes. With
// `numeric`, the last attribute is numeric: its value is a bucket id and
// the row carries distinct exact values.
Input MakeInput(Rng& rng, size_t num_rows, bool numeric) {
  Input in{Schema::Categorical({3, 2, 4}), {}, {}};
  if (numeric) {
    AttributeInfo num;
    num.is_numeric = true;
    num.cardinality = 3;
    num.range = {0.0, 1.0};
    in.schema.AddAttribute(num);
  }
  const size_t m = in.schema.num_attributes();
  in.attr_order.resize(m);
  for (size_t a = 0; a < m; ++a) in.attr_order[a] = static_cast<AttrId>(a);
  std::shuffle(in.attr_order.begin(), in.attr_order.end(), rng);
  for (size_t r = 0; r < num_rows; ++r) {
    Row row{static_cast<RowId>(r), std::vector<ValueId>(m), {}};
    for (size_t a = 0; a < m; ++a) {
      row.values[a] = static_cast<ValueId>(
          rng.Uniform(in.schema.attribute(static_cast<AttrId>(a)).cardinality));
    }
    if (numeric) {
      row.numerics.resize(m, 0.0);
      row.numerics[m - 1] = (row.values[m - 1] + rng.NextDouble()) / 3.0;
    }
    in.rows.push_back(std::move(row));
  }
  return in;
}

enum class Order { kSorted, kReverseSorted, kShuffled, kRunInterleaved };
constexpr Order kOrders[] = {Order::kSorted, Order::kReverseSorted,
                             Order::kShuffled, Order::kRunInterleaved};

const char* OrderName(Order o) {
  switch (o) {
    case Order::kSorted: return "sorted";
    case Order::kReverseSorted: return "reverse-sorted";
    case Order::kShuffled: return "shuffled";
    case Order::kRunInterleaved: return "run-interleaved";
  }
  return "?";
}

// Arranges the rows in `order`. Sorting is by the tree's attribute order
// (the layout PrepareDataset stores); run-interleaved deals short sorted
// runs from four sorted quarters in turn, so runs of shared paths break off
// and resume leaves created earlier.
std::vector<const Row*> Arrange(const Input& in, Order order, Rng& rng) {
  std::vector<const Row*> rows;
  for (const Row& r : in.rows) rows.push_back(&r);
  auto by_path = [&](const Row* a, const Row* b) {
    for (AttrId attr : in.attr_order) {
      if (a->values[attr] != b->values[attr]) {
        return a->values[attr] < b->values[attr];
      }
    }
    return a->id < b->id;
  };
  switch (order) {
    case Order::kSorted:
      std::sort(rows.begin(), rows.end(), by_path);
      break;
    case Order::kReverseSorted:
      std::sort(rows.begin(), rows.end(), by_path);
      std::reverse(rows.begin(), rows.end());
      break;
    case Order::kShuffled:
      std::shuffle(rows.begin(), rows.end(), rng);
      break;
    case Order::kRunInterleaved: {
      std::shuffle(rows.begin(), rows.end(), rng);
      const size_t quarter = (rows.size() + 3) / 4;
      std::vector<std::vector<const Row*>> parts;
      for (size_t b = 0; b < rows.size(); b += quarter) {
        parts.emplace_back(rows.begin() + static_cast<ptrdiff_t>(b),
                           rows.begin() + static_cast<ptrdiff_t>(
                                              std::min(b + quarter,
                                                       rows.size())));
        std::sort(parts.back().begin(), parts.back().end(), by_path);
      }
      rows.clear();
      std::vector<size_t> next(parts.size(), 0);
      for (bool more = true; more;) {
        more = false;
        for (size_t p = 0; p < parts.size(); ++p) {
          const size_t run = 1 + rng.Uniform(6);
          for (size_t k = 0; k < run && next[p] < parts[p].size(); ++k) {
            rows.push_back(parts[p][next[p]++]);
          }
          more = more || next[p] < parts[p].size();
        }
      }
      break;
    }
  }
  return rows;
}

void InsertBoth(ALTree& tree, ReferenceTree& ref, const Row& row) {
  const double* nums = row.numerics.empty() ? nullptr : row.numerics.data();
  tree.Insert(row.id, row.values.data(), nums);
  ref.Insert(row.id, row.values.data(), nums);
}

// Seeded mutations after a build, each followed by a comparison: evict
// single entries and whole leaves, and insert new rows into leaves whose
// ranges already shrank or emptied.
void MutateAndCompare(ALTree& tree, ReferenceTree& ref, const Input& in,
                      Rng& rng, RowId next_id) {
  for (int step = 0; step < 120; ++step) {
    std::vector<NodeId> active;
    tree.ForEachActiveLeaf([&](NodeId leaf) { active.push_back(leaf); });
    std::sort(active.begin(), active.end());
    const uint64_t op = rng.Uniform(3);
    if (active.empty() || op == 2) {
      Row row = in.rows[rng.Uniform(in.rows.size())];
      row.id = next_id++;
      InsertBoth(tree, ref, row);
      ref.ExpectSame(tree, "insert after mutations");
      continue;
    }
    const NodeId leaf = active[rng.Uniform(active.size())];
    if (op == 0) {
      tree.RemoveLeaf(leaf);
      ref.RemoveLeaf(leaf);
      ref.ExpectSame(tree, "RemoveLeaf");
    } else {
      const size_t entry = rng.Uniform(ref.Rows(leaf).size());
      tree.RemoveLeafEntry(leaf, entry);
      ref.RemoveLeafEntry(leaf, entry);
      ref.ExpectSame(tree, "RemoveLeafEntry");
    }
  }
}

void CheckCase(uint64_t seed, bool numeric, Order order) {
  Rng rng(seed);
  const Input in = MakeInput(rng, 60 + rng.Uniform(240), numeric);
  const size_t stride = numeric ? in.schema.num_attributes() : 0;
  const std::vector<const Row*> rows = Arrange(in, order, rng);

  ALTree tree(in.schema, in.attr_order);
  ReferenceTree ref(in.attr_order, stride);
  const size_t half = rows.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    InsertBoth(tree, ref, *rows[i]);
    ref.ExpectSame(tree, "insert");
  }

  // A copy taken mid-build carries the cursor and arenas with it; both
  // trees then take the rest of the rows, the copy in reverse.
  ALTree copy = tree;
  ReferenceTree copy_ref = ref;
  for (size_t i = half; i < rows.size(); ++i) {
    InsertBoth(tree, ref, *rows[i]);
    ref.ExpectSame(tree, "insert");
    InsertBoth(copy, copy_ref, *rows[rows.size() - 1 - (i - half)]);
    copy_ref.ExpectSame(copy, "insert into mid-build copy");
  }

  if (rng.Uniform(2) == 0) {
    tree.PrepareForSearch();
    ref.PrepareForSearch();
    ref.ExpectSame(tree, "PrepareForSearch");
  }
  MutateAndCompare(tree, ref, in, rng, static_cast<RowId>(in.rows.size()));
  MutateAndCompare(copy, copy_ref, in, rng,
                   static_cast<RowId>(2 * in.rows.size()));

  // Clear() reuse: the same object takes a fresh batch in another order.
  tree.Clear();
  ref.Clear();
  ref.ExpectSame(tree, "Clear");
  const std::vector<const Row*> again =
      Arrange(in, kOrders[rng.Uniform(4)], rng);
  for (const Row* row : again) InsertBoth(tree, ref, *row);
  ref.ExpectSame(tree, "insert after Clear");
  MutateAndCompare(tree, ref, in, rng, static_cast<RowId>(3 * in.rows.size()));
}

}  // namespace
}  // namespace nmrs

int main() {
  int cases = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    for (bool numeric : {false, true}) {
      for (nmrs::Order order : nmrs::kOrders) {
        nmrs::CheckCase(seed * 7919 + (numeric ? 1 : 0), numeric, order);
        ++cases;
      }
    }
  }
  std::printf("altree identity: %d cases, all trees identical (orders:", cases);
  for (nmrs::Order order : nmrs::kOrders) {
    std::printf(" %s", nmrs::OrderName(order));
  }
  std::printf(")\n");
  return 0;
}
