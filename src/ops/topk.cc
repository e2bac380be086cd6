#include "ops/topk.h"

#include <algorithm>
#include <queue>

#include "altree/al_tree.h"
#include "order/attribute_order.h"

namespace nmrs {

namespace {

// Ascending by distance, ties by row id.
bool EntryLess(const TopKEntry& a, const TopKEntry& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.row < b.row;
}

}  // namespace

std::vector<TopKEntry> TopKScan(const Dataset& data,
                                const SimilaritySpace& space,
                                const Object& query,
                                const WeightedDistance& dist, size_t k) {
  std::vector<TopKEntry> all;
  all.reserve(data.num_rows());
  for (RowId r = 0; r < data.num_rows(); ++r) {
    all.push_back({r, dist.RowDistance(data, space, r, query)});
  }
  const size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(take),
                    all.end(), EntryLess);
  all.resize(take);
  return all;
}

std::vector<TopKEntry> TopKALTree(const Dataset& data,
                                  const SimilaritySpace& space,
                                  const Object& query,
                                  const WeightedDistance& dist, size_t k,
                                  uint64_t* checks_out) {
  const Schema& schema = data.schema();
  ALTree tree(schema, AscendingCardinalityOrder(schema));
  for (RowId r = 0; r < data.num_rows(); ++r) {
    tree.Insert(r, data.RowValues(r), data.RowNumerics(r));
  }
  return TopKOverTree(tree, schema, space, query, dist, k, checks_out);
}

std::vector<TopKEntry> TopKOverTree(const ALTree& tree, const Schema& schema,
                                    const SimilaritySpace& space,
                                    const Object& query,
                                    const WeightedDistance& dist, size_t k,
                                    uint64_t* checks_out) {
  const size_t m = schema.num_attributes();
  uint64_t checks = 0;
  std::vector<TopKEntry> result;
  if (k == 0 || tree.empty() || m == 0) {
    if (checks_out != nullptr) *checks_out = checks;
    return result;
  }

  const auto& attr_order = tree.attr_order();

  // Per level: weight, query-side distances for categorical levels, and
  // the minimum achievable weighted contribution of the suffix of levels
  // below (inclusive-exclusive bookkeeping below).
  std::vector<double> level_weight(m);
  std::vector<double> level_min(m);  // min_v w_l * d_l(v, q_l)
  for (size_t l = 0; l < m; ++l) {
    const AttrId a = attr_order[l];
    level_weight[l] = dist.weight(a);
    double min_d = 1e300;
    if (schema.attribute(a).is_numeric) {
      // A value can coincide with the query, so 0 is achievable; numeric
      // leaf distances are refined exactly below.
      min_d = 0.0;
    } else {
      for (ValueId v = 0; v < schema.attribute(a).cardinality; ++v) {
        min_d = std::min(min_d, space.CatDist(a, v, query.values[a]));
      }
    }
    level_min[l] = level_weight[l] * min_d;
  }
  // suffix_min[l] = sum of level_min for levels >= l.
  std::vector<double> suffix_min(m + 1, 0.0);
  for (size_t l = m; l-- > 0;) suffix_min[l] = suffix_min[l + 1] + level_min[l];

  struct QueueEntry {
    double bound;
    ALTree::NodeId node;
    uint32_t next_level;  // level of this node's children
    double prefix;        // exact weighted distance of fixed levels
    bool operator>(const QueueEntry& o) const {
      if (bound != o.bound) return bound > o.bound;
      return node > o.node;
    }
  };
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;
  queue.push({suffix_min[0], ALTree::kRootId, 0, 0.0});

  // Max-heap of current k best (worst on top).
  auto worse = [](const TopKEntry& a, const TopKEntry& b) {
    return EntryLess(a, b);
  };
  std::vector<TopKEntry> best;  // kept heapified by `worse`

  auto kth_bound = [&]() {
    return best.size() < k ? 1e300 : best.front().distance;
  };

  while (!queue.empty()) {
    const QueueEntry top = queue.top();
    queue.pop();
    if (top.bound > kth_bound()) break;  // nothing better remains
    if (top.next_level == m) {
      // Leaf: every duplicate is a hit at distance prefix (categorical) or
      // refined per entry (numeric attributes).
      const ALTree::NodeId leaf = top.node;
      const auto rows = tree.LeafRows(leaf);
      for (size_t i = 0; i < rows.size(); ++i) {
        double d = top.prefix;
        if (tree.has_numerics()) {
          const double* nums = tree.LeafNumerics(leaf, i);
          for (size_t l = 0; l < m; ++l) {
            const AttrId a = attr_order[l];
            if (!schema.attribute(a).is_numeric) continue;
            ++checks;
            d += level_weight[l] *
                 space.NumDist(a, nums[a], query.numerics[a]);
          }
        }
        TopKEntry entry{rows[i], d};
        if (best.size() < k) {
          best.push_back(entry);
          std::push_heap(best.begin(), best.end(), worse);
        } else if (EntryLess(entry, best.front())) {
          std::pop_heap(best.begin(), best.end(), worse);
          best.back() = entry;
          std::push_heap(best.begin(), best.end(), worse);
        }
      }
      continue;
    }
    const uint32_t l = top.next_level;
    const AttrId a = attr_order[l];
    const bool numeric = schema.attribute(a).is_numeric;
    for (const ALTree::ChildRef& child : tree.Children(top.node)) {
      if (tree.Descendants(child.id) == 0) continue;
      double contribution;
      if (numeric) {
        contribution = 0.0;  // refined exactly at the leaf
      } else {
        ++checks;
        contribution =
            level_weight[l] * space.CatDist(a, child.value, query.values[a]);
      }
      const double prefix = top.prefix + contribution;
      const double bound = prefix + suffix_min[l + 1];
      if (bound <= kth_bound()) {
        queue.push({bound, child.id, l + 1, prefix});
      }
    }
  }

  std::sort(best.begin(), best.end(), EntryLess);
  if (checks_out != nullptr) *checks_out = checks;
  return best;
}

}  // namespace nmrs
