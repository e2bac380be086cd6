#include "sim/matrix_overlay.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string_view>
#include <system_error>

#include "common/check.h"
#include "common/string_util.h"

namespace nmrs {

MatrixOverlay::MatrixOverlay(const SimilaritySpace& base)
    : base_(&base), attrs_(base.num_attributes()) {}

Status MatrixOverlay::Set(AttrId attr, ValueId from, ValueId to, double d) {
  if (attr >= base_->num_attributes()) {
    return Status::InvalidArgument("overlay attr " + std::to_string(attr) +
                                   " out of range (schema has " +
                                   std::to_string(base_->num_attributes()) +
                                   " attributes)");
  }
  if (base_->IsNumeric(attr)) {
    return Status::InvalidArgument("overlay attr " + std::to_string(attr) +
                                   " is numeric; overlays patch categorical "
                                   "matrices only");
  }
  const size_t card = base_->Cardinality(attr);
  if (from >= card || to >= card) {
    return Status::InvalidArgument(
        "overlay value ids (" + std::to_string(from) + ", " +
        std::to_string(to) + ") out of domain for attr " +
        std::to_string(attr) + " (cardinality " + std::to_string(card) + ")");
  }
  if (from == to) {
    return Status::InvalidArgument(
        "overlay entry on the diagonal of attr " + std::to_string(attr) +
        " (value " + std::to_string(from) +
        "): d(x, x) = 0 must be preserved");
  }
  if (!(d >= 0.0)) {  // also rejects NaN
    return Status::InvalidArgument("overlay distance must be non-negative");
  }

  AttrPatches& p = attrs_[attr];
  if (p.by_col.empty()) {
    p.by_col.resize(card);
    p.by_row.resize(card);
  }
  // Overwrite an existing entry in place; append otherwise (both sides).
  bool existed = false;
  for (auto& [f, dist] : p.by_col[to]) {
    if (f == from) {
      dist = d;
      existed = true;
      break;
    }
  }
  if (existed) {
    for (auto& [t, dist] : p.by_row[from]) {
      if (t == to) {
        dist = d;
        break;
      }
    }
    return Status::OK();
  }
  p.by_col[to].emplace_back(from, d);
  p.by_row[from].emplace_back(to, d);
  ++p.entries;
  ++num_entries_;
  return Status::OK();
}

std::vector<MatrixOverlay::Entry> MatrixOverlay::Entries() const {
  std::vector<Entry> out;
  out.reserve(num_entries_);
  for (AttrId a = 0; a < attrs_.size(); ++a) {
    const AttrPatches& p = attrs_[a];
    if (p.entries == 0) continue;
    for (ValueId from = 0; from < p.by_row.size(); ++from) {
      for (const auto& [to, d] : p.by_row[from]) {
        out.push_back(Entry{a, from, to, d});
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Entry& x, const Entry& y) {
    if (x.attr != y.attr) return x.attr < y.attr;
    if (x.from != y.from) return x.from < y.from;
    return x.to < y.to;
  });
  return out;
}

double MatrixOverlay::Dist(AttrId attr, ValueId from, ValueId to) const {
  NMRS_DCHECK(attr < attrs_.size());
  const AttrPatches& p = attrs_[attr];
  if (p.entries > 0) {
    for (const auto& [t, d] : p.by_row[from]) {
      if (t == to) return d;
    }
  }
  return base_->CatDist(attr, from, to);
}

void MatrixOverlay::PatchColumn(AttrId attr, ValueId to, double* col) const {
  NMRS_DCHECK(attr < attrs_.size());
  const AttrPatches& p = attrs_[attr];
  if (p.entries == 0) return;
  for (const auto& [from, d] : p.by_col[to]) col[from] = d;
}

void MatrixOverlay::PatchRow(AttrId attr, ValueId from, double* row) const {
  NMRS_DCHECK(attr < attrs_.size());
  const AttrPatches& p = attrs_[attr];
  if (p.entries == 0) return;
  for (const auto& [to, d] : p.by_row[from]) row[to] = d;
}

bool MatrixOverlay::RowSensitive(const ValueId* values,
                                 const std::vector<AttrId>& selected) const {
  for (AttrId a : selected) {
    if (base_->IsNumeric(a)) continue;
    if (TouchesColumn(a, values[a])) return true;
  }
  return false;
}

SimilaritySpace MatrixOverlay::BuildPatchedSpace() const {
  SimilaritySpace out;
  for (AttrId a = 0; a < base_->num_attributes(); ++a) {
    if (base_->IsNumeric(a)) {
      out.AddNumeric(base_->numeric(a));
      continue;
    }
    DissimilarityMatrix m = base_->matrix(a);  // dense copy
    const AttrPatches& p = attrs_[a];
    if (p.entries > 0) {
      for (ValueId from = 0; from < p.by_row.size(); ++from) {
        for (const auto& [to, d] : p.by_row[from]) m.Set(from, to, d);
      }
    }
    out.AddCategorical(std::move(m));
  }
  return out;
}

std::string MatrixOverlay::Serialize() const {
  std::ostringstream out;
  out.precision(17);  // round-trips every double exactly
  for (const Entry& e : Entries()) {
    out << e.attr << ' ' << e.from << ' ' << e.to << ' ' << e.d << '\n';
  }
  return out.str();
}

namespace {

// The whitespace of the classic "C" locale, which `>>` skips.
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

// Skips whitespace from `*pos`, then returns the run of non-whitespace
// characters there (empty at the end of `line`), like `>> std::string`.
std::string_view NextToken(std::string_view line, size_t* pos) {
  while (*pos < line.size() && IsSpace(line[*pos])) ++*pos;
  const size_t start = *pos;
  while (*pos < line.size() && !IsSpace(line[*pos])) ++*pos;
  return line.substr(start, *pos - start);
}

// Reads a double at `*pos` the way `>> double` does in the "C" locale:
// after whitespace, the longest prefix of the form [+-]? digits and at most
// one '.', then, once a digit was seen, [eE] [+-]? digits. The prefix must
// convert entirely, and a value beyond the double range fails while one
// below it reads as a (signed) zero or subnormal. `*pos` ends past the
// prefix either way.
bool ReadDouble(std::string_view line, size_t* pos, double* d) {
  while (*pos < line.size() && IsSpace(line[*pos])) ++*pos;
  const auto at = [&](size_t i) { return i < line.size() ? line[i] : '\0'; };
  const auto is_digit = [](char c) { return c >= '0' && c <= '9'; };
  size_t i = *pos;
  if (at(i) == '+' || at(i) == '-') ++i;
  const size_t mantissa = i;
  bool digits = false, point = false;
  for (;; ++i) {
    if (is_digit(at(i))) {
      digits = true;
    } else if (at(i) == '.' && !point) {
      point = true;
    } else {
      break;
    }
  }
  if (digits && (at(i) == 'e' || at(i) == 'E')) {
    ++i;
    if (at(i) == '+' || at(i) == '-') ++i;
    while (is_digit(at(i))) ++i;
  }
  if (i == mantissa) return false;  // nothing past the sign
  std::string_view number = line.substr(*pos, i - *pos);
  *pos = i;
  // from_chars takes no leading '+', which leaves the value as it is.
  if (number[0] == '+') number.remove_prefix(1);
  const auto [end, ec] =
      std::from_chars(number.data(), number.data() + number.size(), *d);
  if (end != number.data() + number.size()) return false;
  if (ec == std::errc::result_out_of_range) {
    // Overflow or underflow: strtod tells them apart (rare, so the copy
    // that NUL-terminates the number costs nothing in the common case).
    *d = std::strtod(std::string(number).c_str(), nullptr);
    return !std::isinf(*d);
  }
  return ec == std::errc();
}

}  // namespace

StatusOr<MatrixOverlay> MatrixOverlay::Parse(const SimilaritySpace& base,
                                             const std::string& text) {
  MatrixOverlay overlay(base);
  const std::string_view all(text);
  size_t lineno = 0;
  for (size_t next = 0; next < all.size();) {
    // Lines as std::getline splits them: a final line needs no '\n'.
    const size_t nl = all.find('\n', next);
    const std::string_view line =
        all.substr(next, nl == std::string_view::npos ? all.npos : nl - next);
    next = nl == std::string_view::npos ? all.size() : nl + 1;
    ++lineno;
    const size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string_view::npos || line[start] == '#') continue;
    const auto bad_line = [&](std::string_view msg) {
      return Status::InvalidArgument("overlay line " + std::to_string(lineno) +
                                     ": " + std::string(msg));
    };
    size_t pos = 0;
    const std::string_view attr_tok = NextToken(line, &pos);
    const std::string_view from_tok = NextToken(line, &pos);
    const std::string_view to_tok = NextToken(line, &pos);
    double d = 0.0;
    if (to_tok.empty() || !ReadDouble(line, &pos, &d)) {
      return bad_line("expected \"attr from to d\", got \"" +
                      std::string(line) + "\"");
    }
    if (!NextToken(line, &pos).empty()) {
      return bad_line("trailing tokens after \"attr from to d\"");
    }
    const StatusOr<uint64_t> attr = ParseDigits("attr", attr_tok);
    const StatusOr<uint64_t> from = ParseDigits("from", from_tok);
    const StatusOr<uint64_t> to = ParseDigits("to", to_tok);
    for (const StatusOr<uint64_t>* id : {&attr, &from, &to}) {
      if (!id->ok()) return bad_line(id->status().message());
    }
    // Range-check before narrowing, so 4294967296 cannot wrap to attr 0.
    if (*attr > std::numeric_limits<AttrId>::max() ||
        *from > std::numeric_limits<ValueId>::max() ||
        *to > std::numeric_limits<ValueId>::max()) {
      return bad_line("attr or value id out of range");
    }
    Status s = overlay.Set(static_cast<AttrId>(*attr),
                           static_cast<ValueId>(*from),
                           static_cast<ValueId>(*to), d);
    if (!s.ok()) return bad_line(s.message());
  }
  return overlay;
}

MatrixOverlay MakeRandomOverlay(const SimilaritySpace& space, Rng& rng,
                                double touch_fraction) {
  MatrixOverlay overlay(space);
  if (touch_fraction <= 0.0) return overlay;
  for (AttrId a = 0; a < space.num_attributes(); ++a) {
    if (space.IsNumeric(a)) continue;
    const size_t card = space.Cardinality(a);
    if (card < 2) continue;
    std::vector<std::pair<ValueId, ValueId>> pairs;
    pairs.reserve(card * (card - 1));
    for (ValueId from = 0; from < card; ++from) {
      for (ValueId to = 0; to < card; ++to) {
        if (from != to) pairs.emplace_back(from, to);
      }
    }
    rng.Shuffle(pairs);
    const size_t target = static_cast<size_t>(
        std::llround(touch_fraction * static_cast<double>(pairs.size())));
    for (size_t i = 0; i < target && i < pairs.size(); ++i) {
      NMRS_CHECK(overlay
                     .Set(a, pairs[i].first, pairs[i].second, rng.NextDouble())
                     .ok());
    }
  }
  if (overlay.empty()) {
    // A positive touch fraction must yield a real perturbation: drop one
    // entry into the first categorical attribute with a 2+ value domain.
    for (AttrId a = 0; a < space.num_attributes(); ++a) {
      if (space.IsNumeric(a) || space.Cardinality(a) < 2) continue;
      const size_t card = space.Cardinality(a);
      const ValueId from = static_cast<ValueId>(rng.Uniform(card));
      ValueId to = static_cast<ValueId>(rng.Uniform(card - 1));
      if (to >= from) ++to;
      NMRS_CHECK(overlay.Set(a, from, to, rng.NextDouble()).ok());
      break;
    }
  }
  return overlay;
}

}  // namespace nmrs
