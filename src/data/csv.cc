#include "data/csv.h"

#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/string_util.h"

namespace nmrs {

Status WriteDatasetCsv(const Dataset& data, std::ostream& out) {
  const Schema& schema = data.schema();
  const size_t m = schema.num_attributes();
  out << std::setprecision(17);  // lossless double round-trip
  for (AttrId a = 0; a < m; ++a) {
    if (a > 0) out << ",";
    const auto& info = schema.attribute(a);
    out << info.name << ":" << (info.is_numeric ? "num" : "cat") << ":"
        << info.cardinality;
    if (info.is_numeric) {
      out << ":" << info.range.lo << ":" << info.range.hi;
    }
  }
  out << "\n";
  for (RowId r = 0; r < data.num_rows(); ++r) {
    for (AttrId a = 0; a < m; ++a) {
      if (a > 0) out << ",";
      if (schema.attribute(a).is_numeric) {
        out << data.Numeric(r, a);
      } else {
        out << data.Value(r, a);
      }
    }
    out << "\n";
  }
  if (!out) return Status::Internal("stream write failed");
  return Status::OK();
}

StatusOr<Dataset> ReadDatasetCsv(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty CSV: missing header");
  }
  Schema schema;
  for (const std::string& column : StrSplit(line, ',')) {
    const auto parts = StrSplit(column, ':');
    if (parts.size() < 3) {
      return Status::InvalidArgument("bad header column '" + column +
                                     "': want name:kind:cardinality");
    }
    AttributeInfo info;
    info.name = parts[0];
    NMRS_ASSIGN_OR_RETURN(uint64_t card,
                          ParseDigits("cardinality", parts[2]));
    if (card > kInvalidValueId) {
      return Status::InvalidArgument("header column '" + column +
                                     "': cardinality exceeds the value-id "
                                     "range");
    }
    info.cardinality = card;
    if (parts[1] == "num") {
      if (parts.size() != 5) {
        return Status::InvalidArgument(
            "numeric header column '" + column +
            "' must be name:num:buckets:lo:hi");
      }
      info.is_numeric = true;
      NMRS_ASSIGN_OR_RETURN(info.range.lo,
                            ParseDouble("range low", parts[3]));
      NMRS_ASSIGN_OR_RETURN(info.range.hi,
                            ParseDouble("range high", parts[4]));
    } else if (parts[1] != "cat") {
      return Status::InvalidArgument("unknown column kind '" + parts[1] +
                                     "'");
    }
    schema.AddAttribute(std::move(info));
  }
  NMRS_RETURN_IF_ERROR(schema.Validate());

  Dataset data(schema);
  const size_t m = schema.num_attributes();
  std::vector<ValueId> values(m, 0);
  std::vector<double> numerics(m, 0.0);
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto cells = StrSplit(line, ',');
    if (cells.size() != m) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_no) + ": expected " +
          std::to_string(m) + " cells, got " + std::to_string(cells.size()));
    }
    for (AttrId a = 0; a < m; ++a) {
      if (schema.attribute(a).is_numeric) {
        NMRS_ASSIGN_OR_RETURN(numerics[a],
                              ParseDouble("numeric cell", cells[a]));
        const Interval& range = schema.attribute(a).range;
        if (!range.Contains(numerics[a])) {
          return Status::InvalidArgument(
              "line " + std::to_string(line_no) + ": numeric value " +
              cells[a] + " outside the range of attribute " +
              schema.attribute(a).name);
        }
      } else {
        NMRS_ASSIGN_OR_RETURN(uint64_t v, ParseDigits("value id", cells[a]));
        if (v >= schema.attribute(a).cardinality) {
          return Status::InvalidArgument(
              "line " + std::to_string(line_no) + ": value id " +
              std::to_string(v) + " out of domain for attribute " +
              schema.attribute(a).name);
        }
        values[a] = static_cast<ValueId>(v);
      }
    }
    data.AppendRow(values, numerics);
  }
  return data;
}

Status WriteMatrixCsv(const DissimilarityMatrix& m, std::ostream& out) {
  out << std::setprecision(17);
  out << m.cardinality() << "\n";
  for (ValueId a = 0; a < m.cardinality(); ++a) {
    for (ValueId b = 0; b < m.cardinality(); ++b) {
      if (b > 0) out << ",";
      out << m.Dist(a, b);
    }
    out << "\n";
  }
  if (!out) return Status::Internal("stream write failed");
  return Status::OK();
}

StatusOr<DissimilarityMatrix> ReadMatrixCsv(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty matrix CSV");
  }
  NMRS_ASSIGN_OR_RETURN(uint64_t k, ParseDigits("matrix cardinality", line));
  if (k == 0) return Status::InvalidArgument("matrix cardinality 0");
  if (k > kInvalidValueId) {
    return Status::InvalidArgument("matrix cardinality " + std::to_string(k) +
                                   " exceeds the value-id range");
  }
  DissimilarityMatrix m(k);
  for (ValueId a = 0; a < k; ++a) {
    if (!std::getline(in, line)) {
      return Status::InvalidArgument("matrix truncated at row " +
                                     std::to_string(a));
    }
    const auto cells = StrSplit(line, ',');
    if (cells.size() != k) {
      return Status::InvalidArgument("matrix row " + std::to_string(a) +
                                     " has " + std::to_string(cells.size()) +
                                     " cells, want " + std::to_string(k));
    }
    for (ValueId b = 0; b < k; ++b) {
      NMRS_ASSIGN_OR_RETURN(double d, ParseDouble("matrix cell", cells[b]));
      m.Set(a, b, d);
    }
  }
  return m;
}

Status WriteDatasetCsvFile(const Dataset& data, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot open " + path + " for writing");
  return WriteDatasetCsv(data, out);
}

StatusOr<Dataset> ReadDatasetCsvFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  return ReadDatasetCsv(in);
}

Status WriteMatrixCsvFile(const DissimilarityMatrix& m,
                          const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot open " + path + " for writing");
  return WriteMatrixCsv(m, out);
}

StatusOr<DissimilarityMatrix> ReadMatrixCsvFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  return ReadMatrixCsv(in);
}

}  // namespace nmrs
