// Robustness: the CSV readers must never crash on malformed input. Runs the
// three cases of csv_fuzz_cases.h (the same cases as the CsvFuzzTest gtests).
//
// Deliberately gtest-free so ci.sh can run it under ASan/UBSan with only
// instrumented code. Exits 0 when every check holds, 1 otherwise.
#include <cstdio>

#include "csv_fuzz_cases.h"

namespace nmrs {
namespace {

int g_failures = 0;

int Run(const char* name, const csv_fuzz::FuzzOutcome& out) {
  for (int i : out.failures) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s (input %d)\n", name, i);
  }
  return out.parsed;
}

}  // namespace
}  // namespace nmrs

int main() {
  using namespace nmrs;
  // The point is no crash and no corrupt result; parses may or may not
  // succeed.
  const int datasets = Run("garbage dataset fails Validate",
                           csv_fuzz::DatasetReaderNeverCrashes());
  const int matrices =
      Run("garbage matrix is empty", csv_fuzz::MatrixReaderNeverCrashes());
  const int mutated = Run("mutated dataset fails Validate",
                          csv_fuzz::StructuredMutationsOfValidInput());
  std::printf(
      "csv_fuzz: parsed %d of 3000 garbage datasets, %d of 3000 garbage "
      "matrices, %d of 2000 mutated datasets; %d failures\n",
      datasets, matrices, mutated, g_failures);
  return g_failures == 0 ? 0 : 1;
}
