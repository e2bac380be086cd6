#include "core/dominance.h"

#include <numeric>

#include "core/query_distance_table.h"

namespace nmrs {

std::vector<AttrId> ResolveSelectedAttrs(const Schema& schema,
                                         const std::vector<AttrId>& selected) {
  if (selected.empty()) {
    std::vector<AttrId> all(schema.num_attributes());
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  for (AttrId a : selected) {
    NMRS_CHECK(a < schema.num_attributes())
        << "selected attribute " << a << " out of range";
  }
  return selected;
}

PruneContext::PruneContext(const SimilaritySpace& space, const Schema& schema,
                           const Object& query,
                           const std::vector<AttrId>& selected,
                           const QueryDistanceTable* table)
    : space_(&space),
      schema_(&schema),
      query_(query),
      selected_(ResolveSelectedAttrs(schema, selected)),
      table_(table) {
  NMRS_CHECK_EQ(space.num_attributes(), schema.num_attributes());
  NMRS_CHECK_EQ(query.values.size(), schema.num_attributes());
  if (table_ != nullptr) {
    NMRS_CHECK_EQ(table_->num_selected(), selected_.size());
    NMRS_CHECK(table_->selected() == selected_)
        << "QueryDistanceTable built for a different selection";
    xcol_.assign(selected_.size(), nullptr);
  }
  positions_.reserve(selected_.size());
  for (size_t k = 0; k < selected_.size(); ++k) {
    const AttrId a = selected_[k];
    const bool numeric = schema.attribute(a).is_numeric;
    positions_.push_back({a, numeric});
    if (numeric) {
      num_.push_back({k, a});
    } else if (table_ != nullptr) {
      cat_.push_back({k, a, table_->FromQuery(k), table_->ColumnsTo(k)});
    } else {
      cat_.push_back({k, a, nullptr, nullptr});
    }
  }
  qdist_.assign(selected_.size(), 0.0);
}

void PruneContext::SetCandidate(const ValueId* x_values,
                                const double* x_numerics) {
  x_values_ = x_values;
  x_numerics_ = x_numerics;
  if (table_ != nullptr) {
    for (const CatSlot& s : cat_) {
      const ValueId xv = x_values[s.attr];
      qdist_[s.k] = s.from_query[xv];
      xcol_[s.k] = s.columns_to[xv];
    }
  } else {
    for (const CatSlot& s : cat_) {
      qdist_[s.k] = space_->CatDist(s.attr, query_.values[s.attr],
                                    x_values[s.attr]);
    }
  }
  for (const NumSlot& s : num_) {
    NMRS_DCHECK(x_numerics != nullptr);
    qdist_[s.k] = space_->NumDist(s.attr, query_.numerics[s.attr],
                                  x_numerics[s.attr]);
  }
}

bool PruneContext::QueryAtCandidate() const {
  for (double d : qdist_) {
    if (d != 0.0) return false;
  }
  return true;
}

bool PruneContext::Prunes(const ValueId* y_values, const double* y_numerics,
                          uint64_t* checks) const {
  NMRS_DCHECK(x_values_ != nullptr);
  bool strict = false;
  if (table_ != nullptr) {
    // Memoized path: the per-candidate column pointers cached by
    // SetCandidate turn each categorical check into one flat array load;
    // numeric positions hold a null column.
    for (size_t k = 0; k < selected_.size(); ++k) {
      const AttrId a = positions_[k].attr;
      const double* col = xcol_[k];
      double lhs;
      if (col != nullptr) {
        lhs = col[y_values[a]];
      } else {
        NMRS_DCHECK(y_numerics != nullptr && x_numerics_ != nullptr);
        lhs = space_->NumDist(a, y_numerics[a], x_numerics_[a]);
      }
      ++*checks;
      if (lhs > qdist_[k]) return false;
      if (lhs < qdist_[k]) strict = true;
    }
    return strict;
  }
  for (size_t k = 0; k < selected_.size(); ++k) {
    const AttrId a = positions_[k].attr;
    double lhs;
    if (positions_[k].numeric) {
      NMRS_DCHECK(y_numerics != nullptr && x_numerics_ != nullptr);
      lhs = space_->NumDist(a, y_numerics[a], x_numerics_[a]);
    } else {
      lhs = space_->CatDist(a, y_values[a], x_values_[a]);
    }
    ++*checks;
    if (lhs > qdist_[k]) return false;
    if (lhs < qdist_[k]) strict = true;
  }
  return strict;
}

}  // namespace nmrs
