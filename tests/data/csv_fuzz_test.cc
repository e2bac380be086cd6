// Robustness: the CSV readers must never crash on malformed input — every
// garbage stream yields a Status error or a valid dataset, deterministically.
// The cases live in csv_fuzz_cases.h, which the gtest-free csv_fuzz driver
// also runs under ASan/UBSan.
#include <gtest/gtest.h>

#include "csv_fuzz_cases.h"

namespace nmrs {
namespace {

// The point is no crash and no corrupt result; parses may or may not
// succeed.
void ExpectNoFailures(const csv_fuzz::FuzzOutcome& out, int inputs) {
  EXPECT_TRUE(out.failures.empty())
      << out.failures.size() << " inputs broke the check, first "
      << out.failures.front();
  SUCCEED() << out.parsed << " of " << inputs << " inputs parsed";
}

TEST(CsvFuzzTest, DatasetReaderNeverCrashes) {
  ExpectNoFailures(csv_fuzz::DatasetReaderNeverCrashes(), 3000);
}

TEST(CsvFuzzTest, MatrixReaderNeverCrashes) {
  ExpectNoFailures(csv_fuzz::MatrixReaderNeverCrashes(), 3000);
}

TEST(CsvFuzzTest, StructuredMutationsOfValidInput) {
  ExpectNoFailures(csv_fuzz::StructuredMutationsOfValidInput(), 2000);
}

}  // namespace
}  // namespace nmrs
