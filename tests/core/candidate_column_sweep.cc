// Seeded sweep of the candidate columns a table-backed PruneContext reads.
// QueryDistanceTable builds, per selected categorical attribute, one
// value-indexed array of column pointers: the base matrix column where the
// overlay leaves it alone, a patched copy the table owns where it touches
// it. Every pruning check of every algorithm reads those pointers, so each
// one is checked against the overlay's own Dist.
//
// Inputs: seeded spaces with 1-4 categorical attributes of cardinality
// 1-64 (tied grid distances, asymmetric) and 0-2 numeric ones; random
// attribute subsets; overlays from MakeRandomOverlay at several densities
// (empty included) plus entries on the query's own row and column.
//
// Per case:
//   1. for every selected categorical k, candidate value x and value v,
//      ColumnsTo(k)[x][v] == overlay.Dist(a, v, x); untouched columns alias
//      the base matrix, touched ones do not; FromQuery / ToQuery equal the
//      patched query row and column;
//   2. for random candidates, QueryDist(k) equals the patched d(q_a, x_a)
//      and CandidateColumn(k) is the table's column for x_a, on two
//      contexts sharing the table;
//   3. for random (X, Y) pairs, Prunes and its check count equal those of a
//      tableless context over BuildPatchedSpace().
//
// Deliberately gtest-free so ci.sh can run it under ASan/UBSan with only
// instrumented code. Exits 0 when every check holds, 1 otherwise.
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/dominance.h"
#include "core/query_distance_table.h"
#include "sim/matrix_overlay.h"
#include "sim/similarity_space.h"

namespace nmrs {
namespace {

struct Tally {
  uint64_t cases = 0;
  uint64_t mismatches = 0;
  uint64_t column_entries = 0;
  uint64_t touched_columns = 0;
  uint64_t untouched_columns = 0;
  uint64_t numeric_positions = 0;
  uint64_t candidates = 0;
  uint64_t pairs = 0;
  uint64_t pruned = 0;
  uint64_t kept = 0;
};

void Fail(Tally* tally, uint64_t seed, const std::string& what) {
  if (++tally->mismatches <= 10) {
    std::fprintf(stderr, "MISMATCH seed=%llu: %s\n",
                 static_cast<unsigned long long>(seed), what.c_str());
  }
}

Schema RandomSchema(Rng& rng) {
  Schema schema;
  const size_t num_cat = 1 + rng.Uniform(4);
  const size_t num_num = rng.Uniform(3);
  // Interleave the kinds so numeric positions fall between categorical ones.
  for (size_t i = 0, c = 0, n = 0; i < num_cat + num_num; ++i) {
    if (n < num_num && (c == num_cat || rng.Bernoulli(0.4))) {
      schema.AddAttribute(AttributeInfo{"n" + std::to_string(n++), 4, true,
                                        Interval{0.0, 4.0}});
    } else {
      const size_t card = rng.Bernoulli(0.2) ? 1 + rng.Uniform(4)
                                             : 1 + rng.Uniform(64);
      schema.AddAttribute(
          AttributeInfo{"c" + std::to_string(c++), card, false, {}});
    }
  }
  return schema;
}

SimilaritySpace RandomSpace(const Schema& schema, Rng& rng) {
  SimilaritySpace space;
  for (AttrId a = 0; a < schema.num_attributes(); ++a) {
    const AttributeInfo& info = schema.attribute(a);
    if (info.is_numeric) {
      space.AddNumeric(NumericDissimilarity(0.5 * (1 + rng.Uniform(2))));
      continue;
    }
    DissimilarityMatrix m(info.cardinality);
    for (ValueId u = 0; u < info.cardinality; ++u) {
      for (ValueId v = 0; v < info.cardinality; ++v) {
        if (u != v) m.Set(u, v, 0.5 * static_cast<double>(1 + rng.Uniform(3)));
      }
    }
    space.AddCategorical(std::move(m));
  }
  return space;
}

// Numerics come from a small pool so ties are common.
Object RandomObject(const Schema& schema, Rng& rng) {
  Object o(std::vector<ValueId>(schema.num_attributes(), 0));
  for (AttrId a = 0; a < schema.num_attributes(); ++a) {
    const AttributeInfo& info = schema.attribute(a);
    if (info.is_numeric) {
      o.numerics[a] = 0.5 * static_cast<double>(rng.Uniform(9));
    } else {
      o.values[a] = static_cast<ValueId>(rng.Uniform(info.cardinality));
    }
  }
  return o;
}

// A grid distance other than `base`, so a patch always changes the value.
double OtherDistance(double base, Rng& rng) {
  double d = base;
  while (d == base) d = 0.5 * static_cast<double>(1 + rng.Uniform(4));
  return d;
}

void CheckCase(uint64_t seed, Tally* tally) {
  Rng rng(seed);
  const Schema schema = RandomSchema(rng);
  const size_t m = schema.num_attributes();
  const SimilaritySpace space = RandomSpace(schema, rng);

  std::vector<AttrId> subset;
  if (rng.Bernoulli(0.5)) {
    for (AttrId a = 0; a < m; ++a) {
      if (rng.Bernoulli(0.6)) subset.push_back(a);
    }
  }
  const std::vector<AttrId> selected = ResolveSelectedAttrs(schema, subset);
  const Object query = RandomObject(schema, rng);

  const double touch[] = {0.0, 0.01, 0.05, 0.3};
  MatrixOverlay overlay = MakeRandomOverlay(space, rng, touch[rng.Uniform(4)]);
  if (rng.Bernoulli(0.8)) {
    // Entries on the query's own row d(q, .) and column d(., q).
    for (AttrId a = 0; a < m; ++a) {
      if (schema.attribute(a).is_numeric) continue;
      const size_t card = schema.attribute(a).cardinality;
      const ValueId q = query.values[a];
      for (int i = 0; i < 2 && card > 1; ++i) {
        ValueId v = static_cast<ValueId>(rng.Uniform(card));
        if (v == q) v = static_cast<ValueId>((v + 1) % card);
        NMRS_CHECK(overlay.Set(a, q, v,
                               OtherDistance(space.CatDist(a, q, v), rng))
                       .ok());
        NMRS_CHECK(overlay.Set(a, v, q,
                               OtherDistance(space.CatDist(a, v, q), rng))
                       .ok());
      }
    }
  }
  const SimilaritySpace patched = overlay.BuildPatchedSpace();
  const QueryDistanceTable table(space, schema, query, selected, &overlay);
  ++tally->cases;

  // ---- 1. The table's columns, rows and aliasing. ----
  for (size_t k = 0; k < selected.size(); ++k) {
    const AttrId a = selected[k];
    const std::string at = "attr " + std::to_string(a);
    if (schema.attribute(a).is_numeric) {
      ++tally->numeric_positions;
      if (table.ColumnsTo(k) != nullptr || table.FromQuery(k) != nullptr) {
        Fail(tally, seed, at + ": numeric position has table arrays");
      }
      continue;
    }
    const size_t card = space.Cardinality(a);
    const ValueId q = query.values[a];
    const double* const* cols = table.ColumnsTo(k);
    for (ValueId x = 0; x < card; ++x) {
      const bool touched = overlay.TouchesColumn(a, x);
      (touched ? tally->touched_columns : tally->untouched_columns) += 1;
      if ((cols[x] == space.matrix(a).ColumnTo(x)) == touched) {
        Fail(tally, seed,
             at + " column " + std::to_string(x) +
                 (touched ? ": touched column aliases the base"
                          : ": untouched column is a copy"));
      }
      for (ValueId v = 0; v < card; ++v) {
        ++tally->column_entries;
        if (cols[x][v] != overlay.Dist(a, v, x)) {
          Fail(tally, seed,
               at + ": ColumnsTo[" + std::to_string(x) + "][" +
                   std::to_string(v) + "] differs from overlay Dist");
        }
      }
    }
    for (ValueId v = 0; v < card; ++v) {
      if (table.FromQuery(k)[v] != overlay.Dist(a, q, v) ||
          table.ToQuery(k)[v] != overlay.Dist(a, v, q)) {
        Fail(tally, seed, at + ": query row or column differs at value " +
                              std::to_string(v));
      }
    }
  }

  // ---- 2. Per-candidate setup on two contexts sharing the table. ----
  PruneContext ctx(space, schema, query, selected, &table);
  PruneContext other(space, schema, query, selected, &table);
  std::vector<Object> objects;
  for (int i = 0; i < 24; ++i) objects.push_back(RandomObject(schema, rng));
  for (size_t i = 0; i < objects.size(); ++i) {
    const Object& x = objects[i];
    const Object& w = objects[(i + 1) % objects.size()];
    ctx.SetCandidate(x.values.data(), x.numerics.data());
    other.SetCandidate(w.values.data(), w.numerics.data());
    ++tally->candidates;
    for (size_t k = 0; k < selected.size(); ++k) {
      const AttrId a = selected[k];
      const bool numeric = schema.attribute(a).is_numeric;
      const double want =
          numeric ? patched.NumDist(a, query.numerics[a], x.numerics[a])
                  : patched.CatDist(a, query.values[a], x.values[a]);
      if (ctx.QueryDist(k) != want) {
        Fail(tally, seed, "QueryDist differs at attr " + std::to_string(a));
      }
      if (!numeric &&
          (ctx.CandidateColumn(k) != table.ColumnsTo(k)[x.values[a]] ||
           other.CandidateColumn(k) != table.ColumnsTo(k)[w.values[a]])) {
        Fail(tally, seed,
             "CandidateColumn is not the table's column at attr " +
                 std::to_string(a));
      }
    }
  }

  // ---- 3. Prunes against a tableless context over the patched space. ----
  PruneContext reference(patched, schema, query, selected);
  for (const Object& x : objects) {
    ctx.SetCandidate(x.values.data(), x.numerics.data());
    reference.SetCandidate(x.values.data(), x.numerics.data());
    if (ctx.QueryAtCandidate() != reference.QueryAtCandidate()) {
      Fail(tally, seed, "QueryAtCandidate differs");
    }
    for (const Object& y : objects) {
      uint64_t got_checks = 0;
      uint64_t want_checks = 0;
      const bool got =
          ctx.Prunes(y.values.data(), y.numerics.data(), &got_checks);
      const bool want =
          reference.Prunes(y.values.data(), y.numerics.data(), &want_checks);
      ++tally->pairs;
      (want ? tally->pruned : tally->kept) += 1;
      if (got != want || got_checks != want_checks) {
        Fail(tally, seed,
             std::string("Prunes says ") + (got ? "pruned" : "kept") +
                 " after " + std::to_string(got_checks) +
                 " checks, the patched space " + (want ? "pruned" : "kept") +
                 " after " + std::to_string(want_checks));
      }
    }
  }
}

}  // namespace
}  // namespace nmrs

int main() {
  nmrs::Tally tally;
  const uint64_t cases = 1000;
  for (uint64_t seed = 1; seed <= cases; ++seed) {
    nmrs::CheckCase(seed * 7919, &tally);
  }
  std::printf(
      "candidate column sweep: %llu cases, %llu column entries (%llu "
      "touched, %llu untouched columns), %llu numeric positions, %llu "
      "candidates, %llu pairs (%llu pruned, %llu kept); %llu mismatches\n",
      static_cast<unsigned long long>(tally.cases),
      static_cast<unsigned long long>(tally.column_entries),
      static_cast<unsigned long long>(tally.touched_columns),
      static_cast<unsigned long long>(tally.untouched_columns),
      static_cast<unsigned long long>(tally.numeric_positions),
      static_cast<unsigned long long>(tally.candidates),
      static_cast<unsigned long long>(tally.pairs),
      static_cast<unsigned long long>(tally.pruned),
      static_cast<unsigned long long>(tally.kept),
      static_cast<unsigned long long>(tally.mismatches));
  // The sweep must reach every case it exists for, or a pass says little.
  const bool covered = tally.touched_columns > 0 &&
                       tally.untouched_columns > 0 &&
                       tally.numeric_positions > 0 && tally.pruned > 0 &&
                       tally.kept > 0;
  if (!covered) std::fprintf(stderr, "coverage too thin\n");
  return tally.mismatches == 0 && covered ? 0 : 1;
}
