// The CSV fuzz cases, shared by the gtest suite (csv_fuzz_test.cc) and the
// gtest-free driver (csv_fuzz.cc) that ci.sh runs under ASan/UBSan. Every
// garbage stream must yield a Status error or a valid result,
// deterministically. Three cases, each with a fixed seed:
//   1. the dataset reader on 3000 random streams: a parse that succeeds
//      must give a dataset that passes Validate();
//   2. the matrix reader on 3000 random streams: a parse that succeeds
//      must give a non-empty matrix;
//   3. the dataset reader on 2000 copies of a valid file with one byte
//      replaced: an error or a dataset that passes Validate().
#ifndef NMRS_TESTS_DATA_CSV_FUZZ_CASES_H_
#define NMRS_TESTS_DATA_CSV_FUZZ_CASES_H_

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/csv.h"

namespace nmrs {
namespace csv_fuzz {

struct FuzzOutcome {
  int parsed = 0;             // inputs that parsed
  std::vector<int> failures;  // inputs whose parse broke the case's check
};

inline std::string RandomGarbage(Rng& rng, size_t max_len) {
  // Biased toward CSV-ish bytes so parsing gets past the first token
  // often enough to reach deeper code paths.
  static constexpr char kAlphabet[] =
      "0123456789,:.\n\ncatnum-eE+ \tabcxyz";
  const size_t len = rng.Uniform(max_len);
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    if (rng.Bernoulli(0.05)) {
      s.push_back(static_cast<char>(rng.Uniform(256)));
    } else {
      s.push_back(kAlphabet[rng.Uniform(sizeof(kAlphabet) - 1)]);
    }
  }
  return s;
}

inline FuzzOutcome DatasetReaderNeverCrashes() {
  Rng rng(0xF00D);
  FuzzOutcome out;
  for (int i = 0; i < 3000; ++i) {
    std::stringstream ss(RandomGarbage(rng, 200));
    auto result = ReadDatasetCsv(ss);
    out.parsed += result.ok();
    // Never a corrupt dataset.
    if (result.ok() && !result->Validate().ok()) out.failures.push_back(i);
  }
  return out;
}

inline FuzzOutcome MatrixReaderNeverCrashes() {
  Rng rng(0xBEEF);
  FuzzOutcome out;
  for (int i = 0; i < 3000; ++i) {
    std::stringstream ss(RandomGarbage(rng, 150));
    auto result = ReadMatrixCsv(ss);
    out.parsed += result.ok();
    if (result.ok() && result->cardinality() == 0u) out.failures.push_back(i);
  }
  return out;
}

// Takes a valid file and corrupts single characters — the reader must
// return an error or a still-valid dataset, never crash or corrupt.
inline FuzzOutcome StructuredMutationsOfValidInput() {
  const std::string valid = "a:cat:4,b:num:3:0:10\n1,5.5\n3,0.25\n2,9.9\n";
  Rng rng(0xCAFE);
  FuzzOutcome out;
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = valid;
    const size_t pos = rng.Uniform(mutated.size());
    mutated[pos] = static_cast<char>(rng.Uniform(256));
    std::stringstream ss(mutated);
    auto result = ReadDatasetCsv(ss);
    out.parsed += result.ok();
    if (result.ok() && !result->Validate().ok()) out.failures.push_back(i);
  }
  return out;
}

}  // namespace csv_fuzz
}  // namespace nmrs

#endif  // NMRS_TESTS_DATA_CSV_FUZZ_CASES_H_
