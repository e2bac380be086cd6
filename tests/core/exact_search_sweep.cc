// Brute-force Definition 1 sweep for the exact index search and the prune.
// The search is FindPrunerFast over a read-only AL-Tree whose numeric
// attributes sit in it as bucket levels (IndexLevels bounds them by bucket;
// the leaves' exact values decide). Every verdict must equal a brute-force
// test of the candidate against every other row of the tree.
//
// Inputs: seeded mixed schemas with 0-3 categorical attributes (tied grid
// distances) and 1-2 numeric ones with 2-8 buckets over varied ranges;
// numeric values drawn from small pools of bucket boundaries, the range
// ends and a few interior points, so duplicate numerics and boundary values
// are common; whole-row copies and rows that share a leaf with different
// numerics; random attribute subsets, level orders and overlays; queries
// equal to a row or drawn from the same pools. Every row is a candidate
// twice: with its own leaf and id (the engine's overlay searches), and with
// its id alone (the leaf count then includes the candidate, so only the id
// skip keeps it from pruning itself). Fresh candidates that are no row of
// the tree take the exchange verify's form (no leaf, no id). Every search
// of a tree goes through one PrunerMemo, so the leaves that pruned earlier
// candidates, the candidate's own among them, are tested first.
//
// The same inputs drive the prune (paper Alg. 5, StreamLevels::PruneTree):
// each row, with its own id spared, and each fresh object, with none,
// prunes a copy of the tree under the overlay's patched space. The copy
// must lose exactly the rows a brute-force Definition 1 test says the
// object prunes, and never the spared one.
//
// Deliberately gtest-free so ci.sh can run it under ASan/UBSan with only
// instrumented code. Exits 0 when every verdict matches, 1 otherwise.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "altree/al_tree.h"
#include "common/rng.h"
#include "core/dominance.h"
#include "core/query_distance_table.h"
#include "core/tree_traversal.h"
#include "data/bucketizer.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "order/attribute_order.h"
#include "sim/matrix_overlay.h"
#include "sim/similarity_space.h"

namespace nmrs {
namespace {

using internal_tree::FastEntry;
using internal_tree::FindPrunerFast;
using internal_tree::IndexLevels;
using internal_tree::StreamLevels;
using NodeId = ALTree::NodeId;

struct Tally {
  uint64_t verdicts = 0;
  uint64_t mismatches = 0;
  uint64_t pruned = 0;
  uint64_t survived = 0;
  // Rows whose leaf holds other rows too.
  uint64_t shared_leaf = 0;
  // Kept rows that some other row's strict path of bucket bounds admits:
  // a search that trusted the path would have pruned them.
  uint64_t bound_admitted_non_pruner = 0;
  uint64_t boundary_values = 0;
  // Prune: one per (streamed object, tree row).
  uint64_t prune_verdicts = 0;
  uint64_t prune_evicted = 0;
  uint64_t prune_kept = 0;
};

// Per numeric attribute: the pool its values come from — every bucket
// boundary (both range ends included) plus two interior points.
std::vector<double> ValuePool(const AttributeInfo& info, Rng& rng) {
  const Bucketizer buckets(info.range, info.cardinality);
  std::vector<double> pool;
  for (ValueId b = 0; b < info.cardinality; ++b) {
    pool.push_back(buckets.BucketInterval(b).lo);
  }
  pool.push_back(info.range.hi);
  for (int i = 0; i < 2; ++i) {
    pool.push_back(rng.UniformDouble(info.range.lo, info.range.hi));
  }
  return pool;
}

Schema RandomSchema(Rng& rng) {
  Schema schema;
  const size_t num_cat = rng.Uniform(4);
  for (size_t i = 0; i < num_cat; ++i) {
    schema.AddAttribute(AttributeInfo{"c" + std::to_string(i),
                                      2 + rng.Uniform(3), false, {}});
  }
  const double los[] = {0.0, -3.0, 0.1, 100.0};
  const double widths[] = {10.0, 1.0, 0.7, 3.0};
  const size_t num_num = 1 + rng.Uniform(2);
  for (size_t i = 0; i < num_num; ++i) {
    const double lo = los[rng.Uniform(4)];
    const double hi = lo + widths[rng.Uniform(4)];
    schema.AddAttribute(AttributeInfo{"n" + std::to_string(i),
                                      2 + rng.Uniform(7), true,
                                      Interval{lo, hi}});
  }
  return schema;
}

SimilaritySpace RandomSpace(const Schema& schema, Rng& rng) {
  SimilaritySpace space;
  const double scales[] = {0.25, 0.5, 1.0};
  for (AttrId a = 0; a < schema.num_attributes(); ++a) {
    const AttributeInfo& info = schema.attribute(a);
    if (info.is_numeric) {
      space.AddNumeric(NumericDissimilarity(scales[rng.Uniform(3)]));
      continue;
    }
    DissimilarityMatrix m(info.cardinality);
    for (ValueId u = 0; u < info.cardinality; ++u) {
      for (ValueId v = 0; v < info.cardinality; ++v) {
        if (u != v) {
          m.Set(u, v, 0.5 * static_cast<double>(1 + rng.Uniform(3)));
        }
      }
    }
    space.AddCategorical(std::move(m));
  }
  return space;
}

// A row or query drawn from the pools: categorical values uniform, numeric
// values from each attribute's pool.
Object DrawObject(const Dataset& data,
                  const std::vector<std::vector<double>>& pools, Rng& rng) {
  const Schema& schema = data.schema();
  std::vector<ValueId> v(schema.num_attributes(), 0);
  std::vector<double> x(schema.num_attributes(), 0.0);
  for (AttrId a = 0; a < schema.num_attributes(); ++a) {
    if (schema.attribute(a).is_numeric) {
      x[a] = pools[a][rng.Uniform(pools[a].size())];
    } else {
      v[a] = static_cast<ValueId>(
          rng.Uniform(schema.attribute(a).cardinality));
    }
  }
  return data.MakeObject(v, x);
}

bool IsBoundary(const Schema& schema, const Object& o) {
  for (AttrId a = 0; a < schema.num_attributes(); ++a) {
    const AttributeInfo& info = schema.attribute(a);
    if (!info.is_numeric) continue;
    const Bucketizer buckets(info.range, info.cardinality);
    for (ValueId b = 0; b < info.cardinality; ++b) {
      const Interval iv = buckets.BucketInterval(b);
      if (o.numerics[a] == iv.lo || o.numerics[a] == iv.hi) return true;
    }
  }
  return false;
}

void CheckTrial(uint64_t seed, Tally* tally) {
  Rng rng(seed);
  const Schema schema = RandomSchema(rng);
  const size_t m = schema.num_attributes();
  const SimilaritySpace space = RandomSpace(schema, rng);
  std::vector<std::vector<double>> pools(m);
  for (AttrId a = 0; a < m; ++a) {
    if (schema.attribute(a).is_numeric) {
      pools[a] = ValuePool(schema.attribute(a), rng);
    }
  }

  // Rows: fresh draws, whole-row copies, and copies whose numerics move
  // inside the same bucket (same leaf, different exact values).
  Dataset data(schema);
  const size_t rows = 4 + rng.Uniform(40);
  for (size_t r = 0; r < rows; ++r) {
    Object o = DrawObject(data, pools, rng);
    if (r > 0 && rng.Bernoulli(0.3)) {
      o = data.GetObject(rng.Uniform(r));
      if (rng.Bernoulli(0.5)) {
        for (AttrId a = 0; a < m; ++a) {
          const AttributeInfo& info = schema.attribute(a);
          if (!info.is_numeric) continue;
          const Interval iv =
              Bucketizer(info.range, info.cardinality).BucketInterval(
                  o.values[a]);
          o.numerics[a] = rng.UniformDouble(iv.lo, iv.hi);
        }
      }
    }
    data.AppendRow(o.values, o.numerics);
  }
  NMRS_CHECK(data.Validate().ok());

  std::vector<AttrId> order = AscendingCardinalityOrder(schema);
  if (rng.Bernoulli(0.5)) order = RandomOrder(schema, rng);
  ALTree tree(schema, order);
  for (RowId r = 0; r < data.num_rows(); ++r) {
    tree.Insert(r, data.RowValues(r), data.RowNumerics(r));
  }
  // TRS phase 2 prunes trees in load order.
  const ALTree stream_tree = tree;
  tree.PrepareForSearch();

  std::vector<AttrId> subset;
  if (rng.Bernoulli(0.5)) {
    for (AttrId a = 0; a < m; ++a) {
      if (rng.Bernoulli(0.6)) subset.push_back(a);
    }
    if (subset.empty()) subset.push_back(static_cast<AttrId>(rng.Uniform(m)));
  }
  const std::vector<AttrId> selected = ResolveSelectedAttrs(schema, subset);
  const double touch[] = {0.0, 0.2, 0.5};
  const MatrixOverlay overlay =
      MakeRandomOverlay(space, rng, touch[rng.Uniform(3)]);
  const Object query = rng.Bernoulli(0.5)
                           ? data.GetObject(rng.Uniform(data.num_rows()))
                           : DrawObject(data, pools, rng);
  const QueryDistanceTable table(space, schema, query, selected, &overlay);
  PruneContext ctx(space, schema, query, selected, &table);
  IndexLevels levels(tree, selected);
  std::vector<FastEntry> stack;
  std::vector<ValueId> witness(m);

  // One search against brute force over every row whose id is not `id`.
  auto check = [&](const Object& c, RowId id, NodeId self_leaf,
                   const std::string& what) {
    ctx.SetCandidate(c.values.data(), c.numerics.data());
    bool brute = false;
    uint64_t unused = 0;
    for (RowId y = 0; y < data.num_rows() && !brute; ++y) {
      brute = y != id &&
              ctx.Prunes(data.RowValues(y), data.RowNumerics(y), &unused);
    }
    QueryStats stats;
    const NodeId got =
        FindPrunerFast(tree, levels.Bind(ctx, id), self_leaf, &stats, stack,
                       levels.exact(), &levels.memo());
    bool witness_ok = true;
    if (got != ALTree::kInvalidNode) {
      const uint32_t entry = levels.exact()->entry;
      internal_tree::LeafValues(tree, got, order, &witness);
      witness_ok = tree.LeafRows(got)[entry] != id &&
                   ctx.Prunes(witness.data(), tree.LeafNumerics(got, entry),
                              &unused);
    }
    ++tally->verdicts;
    (brute ? tally->pruned : tally->survived) += 1;
    if ((got != ALTree::kInvalidNode) != brute || !witness_ok) {
      if (++tally->mismatches <= 10) {
        std::fprintf(stderr,
                     "MISMATCH seed=%llu %s: search says %s, brute force "
                     "says %s%s\n",
                     static_cast<unsigned long long>(seed), what.c_str(),
                     got != ALTree::kInvalidNode ? "pruned" : "kept",
                     brute ? "pruned" : "kept",
                     witness_ok ? "" : " (witness does not prune)");
      }
    }
    return brute;
  };

  // One prune of a copy of the tree by streamed object e against brute
  // force over every row.
  const SimilaritySpace patched = overlay.BuildPatchedSpace();
  RSOptions prune_opts;
  prune_opts.attr_order = order;
  prune_opts.selected_attrs = subset;
  const internal_tree::TreeQueryContext tree_ctx =
      internal_tree::MakeTreeContext(patched, schema, query, prune_opts);
  StreamLevels stream(tree_ctx);
  PruneContext brute_ctx(patched, schema, query, selected);
  std::vector<uint8_t> kept(data.num_rows());
  auto check_prune = [&](const Object& e, RowId spare_id,
                         const std::string& what) {
    ALTree pruned = stream_tree;
    QueryStats stats;
    stream.PruneTree(pruned, e.values.data(), e.numerics.data(), spare_id,
                     &stats, stack);
    std::fill(kept.begin(), kept.end(), 0);
    pruned.ForEachActiveLeaf([&](NodeId leaf) {
      for (RowId r : pruned.LeafRows(leaf)) kept[r] = 1;
    });
    uint64_t unused = 0;
    for (RowId r = 0; r < data.num_rows(); ++r) {
      brute_ctx.SetCandidate(data.RowValues(r), data.RowNumerics(r));
      const bool evict =
          r != spare_id &&
          brute_ctx.Prunes(e.values.data(), e.numerics.data(), &unused);
      ++tally->prune_verdicts;
      (evict ? tally->prune_evicted : tally->prune_kept) += 1;
      if (kept[r] != evict) continue;
      if (++tally->mismatches <= 10) {
        std::fprintf(stderr,
                     "MISMATCH seed=%llu prune by %s: row %llu %s, brute "
                     "force says %s\n",
                     static_cast<unsigned long long>(seed), what.c_str(),
                     static_cast<unsigned long long>(r),
                     kept[r] ? "kept" : "evicted", evict ? "evict" : "keep");
      }
    }
  };

  for (RowId x = 0; x < data.num_rows(); ++x) {
    const Object c = data.GetObject(x);
    check_prune(c, x, "row " + std::to_string(x));
    tally->boundary_values += IsBoundary(schema, c) ? 1 : 0;
    const NodeId leaf = tree.FindLeaf(data.RowValues(x));
    NMRS_CHECK(leaf != ALTree::kInvalidNode);
    const std::string row = "row " + std::to_string(x);
    const bool brute = check(c, x, leaf, row + " (own leaf and id)");
    check(c, x, ALTree::kInvalidNode, row + " (id only)");

    // Count the kept rows whose verdict needed the exact step: some other
    // row's path passes every level bound with a strict one, so a search
    // that trusted the path would have pruned them.
    if (tree.LeafRows(leaf).size() > 1) ++tally->shared_leaf;
    if (!brute) {
      bool admitted = false;
      for (RowId y = 0; y < data.num_rows() && !admitted; ++y) {
        if (y == x) continue;
        bool passes = true;
        bool strict = false;
        for (size_t k = 0; k < selected.size() && passes; ++k) {
          const AttrId a = selected[k];
          const double rhs = ctx.QueryDist(k);
          double lhs;
          if (schema.attribute(a).is_numeric) {
            const AttributeInfo& info = schema.attribute(a);
            lhs = space.numeric(a).MinDist(
                Bucketizer(info.range, info.cardinality)
                    .BucketInterval(data.Value(y, a)),
                Interval{c.numerics[a], c.numerics[a]});
          } else {
            lhs = ctx.CandidateDist(k, data.Value(y, a));
          }
          passes = lhs <= rhs;
          strict |= lhs < rhs;
        }
        admitted = passes && strict;
      }
      tally->bound_admitted_non_pruner += admitted ? 1 : 0;
    }
  }
  for (int i = 0; i < 8; ++i) {
    const Object c = DrawObject(data, pools, rng);
    check(c, kInvalidRowId, ALTree::kInvalidNode,
          "fresh candidate " + std::to_string(i));
    check_prune(c, kInvalidRowId, "fresh object " + std::to_string(i));
  }
}

}  // namespace
}  // namespace nmrs

int main() {
  nmrs::Tally tally;
  const uint64_t trials = 400;
  for (uint64_t seed = 1; seed <= trials; ++seed) {
    nmrs::CheckTrial(seed * 104729, &tally);
  }
  std::printf(
      "exact search sweep: %llu trials, %llu verdicts (%llu pruned, %llu "
      "kept), %llu candidates sharing a leaf, %llu kept rows a strict "
      "bucket path admitted, %llu rows on a bucket boundary; prune: %llu "
      "row verdicts (%llu evicted, %llu kept); %llu mismatches\n",
      static_cast<unsigned long long>(trials),
      static_cast<unsigned long long>(tally.verdicts),
      static_cast<unsigned long long>(tally.pruned),
      static_cast<unsigned long long>(tally.survived),
      static_cast<unsigned long long>(tally.shared_leaf),
      static_cast<unsigned long long>(tally.bound_admitted_non_pruner),
      static_cast<unsigned long long>(tally.boundary_values),
      static_cast<unsigned long long>(tally.prune_verdicts),
      static_cast<unsigned long long>(tally.prune_evicted),
      static_cast<unsigned long long>(tally.prune_kept),
      static_cast<unsigned long long>(tally.mismatches));
  // The sweep must reach every case it exists for, or a pass says little.
  const bool covered = tally.pruned > 0 && tally.survived > 0 &&
                       tally.shared_leaf > 0 &&
                       tally.bound_admitted_non_pruner > 0 &&
                       tally.boundary_values > 0 && tally.prune_evicted > 0 &&
                       tally.prune_kept > 0;
  if (!covered) std::fprintf(stderr, "coverage too thin\n");
  return tally.mismatches == 0 && covered ? 0 : 1;
}
