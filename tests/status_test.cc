#include "util/status.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>

#include "util/result.h"
#include "util/string_util.h"

namespace lyric {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.message(), "");
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("no desk");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_FALSE(st.IsTypeError());
  EXPECT_EQ(st.message(), "no desk");
  EXPECT_EQ(st.ToString(), "not-found: no desk");
}

TEST(StatusTest, AllConstructorsMatchPredicates) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::NotImplemented("x").IsNotImplemented());
  EXPECT_TRUE(Status::ParseError("x").IsParseError());
  EXPECT_TRUE(Status::TypeError("x").IsTypeError());
  EXPECT_TRUE(Status::ArithmeticError("x").IsArithmeticError());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(StatusTest, CopyIsCheapAndShared) {
  Status a = Status::Internal("boom");
  Status b = a;
  EXPECT_EQ(b.message(), "boom");
  EXPECT_TRUE(b.IsInternal());
}

Status FailsAtTwo(int i) {
  if (i == 2) return Status::InvalidArgument("two");
  return Status::OK();
}

Status Loop() {
  for (int i = 0; i < 5; ++i) {
    LYRIC_RETURN_NOT_OK(FailsAtTwo(i));
  }
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacro) {
  Status st = Loop();
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "two");
}

Result<int> Half(int v) {
  if (v % 2 != 0) return Status::InvalidArgument("odd");
  return v / 2;
}

Result<int> Quarter(int v) {
  LYRIC_ASSIGN_OR_RETURN(int h, Half(v));
  return Half(h);
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = Half(10);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);
  EXPECT_EQ(ok.ValueOr(-1), 5);
  Result<int> err = Half(3);
  EXPECT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsInvalidArgument());
  EXPECT_EQ(err.ValueOr(-1), -1);
}

TEST(ResultTest, AssignOrReturnChains) {
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd.
  EXPECT_FALSE(Quarter(5).ok());
}

TEST(ResultTest, MoveOnlyFriendly) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"a"}, ", "), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("CST(2)", "CST"));
  EXPECT_FALSE(StartsWith("CS", "CST"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToLower("abc_123"), "abc_123");
}

// The one parser behind every LYRIC_* integer setting: digits only, so
// "-1" is not wrapped to 2^64 - 1 (an unbounded cache) and "12abc" is not
// read as 12.
TEST(StringUtilTest, ParseUint64RejectsAllButDigits) {
  EXPECT_EQ(ParseUint64("4096"), std::optional<uint64_t>(4096));
  EXPECT_EQ(ParseUint64("0"), std::optional<uint64_t>(0));
  EXPECT_EQ(ParseUint64("18446744073709551615"),
            std::optional<uint64_t>(UINT64_MAX));
  EXPECT_FALSE(ParseUint64(nullptr).has_value());
  EXPECT_FALSE(ParseUint64("").has_value());
  EXPECT_FALSE(ParseUint64("-1").has_value());
  EXPECT_FALSE(ParseUint64("+1").has_value());
  EXPECT_FALSE(ParseUint64(" 1").has_value());
  EXPECT_FALSE(ParseUint64("12abc").has_value());
  EXPECT_FALSE(ParseUint64("18446744073709551616").has_value());
}

TEST(StringUtilTest, EnvUint64ReadsTheEnvironment) {
  ::setenv("LYRIC_TEST_UINT", "4096", 1);
  EXPECT_EQ(EnvUint64("LYRIC_TEST_UINT"), std::optional<uint64_t>(4096));
  ::setenv("LYRIC_TEST_UINT", "-1", 1);
  EXPECT_FALSE(EnvUint64("LYRIC_TEST_UINT").has_value());
  ::unsetenv("LYRIC_TEST_UINT");
  EXPECT_FALSE(EnvUint64("LYRIC_TEST_UINT").has_value());
}

}  // namespace
}  // namespace lyric
