#ifndef NMRS_COMMON_STRING_UTIL_H_
#define NMRS_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"

namespace nmrs {

/// Splits `s` on `sep`, keeping empty tokens.
std::vector<std::string> StrSplit(std::string_view s, char sep);

/// Strict non-negative decimal integer parse of `s`, named `what` in
/// errors. Unlike strtoull (which wraps "-1" to 2^64 - 1 and stops at the
/// first junk character), it rejects signs, whitespace, trailing junk and
/// values above UINT64_MAX with InvalidArgument.
StatusOr<uint64_t> ParseDigits(std::string_view what, std::string_view s);

/// Strict parse of a finite decimal number `s`, named `what` in errors.
/// Unlike a bare strtod (which reads "abc" as 0 and stops at the first junk
/// character), it rejects empty input, trailing junk, and "nan", "inf" or
/// overflowing values with InvalidArgument.
StatusOr<double> ParseDouble(std::string_view what, std::string_view s);

/// Joins `parts` with `sep`.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

/// Human formatting helpers used by the bench harnesses.
std::string FormatWithCommas(uint64_t v);
std::string FormatDouble(double v, int precision);

}  // namespace nmrs

#endif  // NMRS_COMMON_STRING_UTIL_H_
