#include "common/string_util.h"

#include <gtest/gtest.h>

namespace nmrs {
namespace {

TEST(StrSplitTest, Basic) {
  auto parts = StrSplit("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StrSplitTest, KeepsEmptyTokens) {
  auto parts = StrSplit(",a,,b,", ',');
  ASSERT_EQ(parts.size(), 5u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[4], "");
}

TEST(StrSplitTest, EmptyString) {
  auto parts = StrSplit("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StrJoinTest, RoundTripsSplit) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(StrJoin(parts, "-"), "x-y-z");
  EXPECT_EQ(StrSplit(StrJoin(parts, ","), ','), parts);
}

TEST(StrJoinTest, SingleAndEmpty) {
  EXPECT_EQ(StrJoin({}, ","), "");
  EXPECT_EQ(StrJoin({"only"}, ","), "only");
}

TEST(ParseDoubleTest, AcceptsFiniteDecimals) {
  EXPECT_EQ(*ParseDouble("x", "2.5"), 2.5);
  EXPECT_EQ(*ParseDouble("x", "-3"), -3.0);
  EXPECT_EQ(*ParseDouble("x", "1e-3"), 1e-3);
}

TEST(ParseDoubleTest, RejectsJunkAndNonFinite) {
  for (const char* bad : {"", "abc", "1x", "1 ", "nan", "NaN", "inf",
                          "-inf", "1e999"}) {
    EXPECT_EQ(ParseDouble("x", bad).status().code(),
              StatusCode::kInvalidArgument)
        << "'" << bad << "'";
  }
}

TEST(FormatWithCommasTest, GroupsThousands) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(1234567), "1,234,567");
  EXPECT_EQ(FormatWithCommas(1000000000ull), "1,000,000,000");
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

}  // namespace
}  // namespace nmrs
