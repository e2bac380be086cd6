#include "common/string_util.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace nmrs {

std::vector<std::string> StrSplit(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

StatusOr<uint64_t> ParseDigits(std::string_view what, std::string_view s) {
  if (s.empty()) {
    return Status::InvalidArgument(std::string(what) + " needs a value");
  }
  for (char c : s) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(std::string(what) +
                                     " must be a non-negative integer, got '" +
                                     std::string(s) + "'");
    }
  }
  uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) {
    return Status::InvalidArgument(std::string(what) + " value '" +
                                   std::string(s) + "' is out of range");
  }
  return v;
}

StatusOr<double> ParseDouble(std::string_view what, std::string_view s) {
  const std::string token(s);
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (token.empty() || end != token.c_str() + token.size()) {
    return Status::InvalidArgument(std::string(what) + " '" + token +
                                   "' is not a number");
  }
  if (!std::isfinite(v)) {
    return Status::InvalidArgument(std::string(what) + " '" + token +
                                   "' is not finite");
  }
  return v;
}

std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string FormatWithCommas(uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count > 0 && count % 3 == 0) out += ',';
    out += *it;
    ++count;
  }
  return {out.rbegin(), out.rend()};
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace nmrs
