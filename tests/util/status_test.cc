#include "util/status.h"

#include <gtest/gtest.h>

#include "support/equality.h"

namespace jim::util {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status status = InvalidArgumentError("bad things");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad things");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad things");
}

TEST(StatusTest, FactoryFunctionsSetCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(UnavailableError("x").code(), StatusCode::kUnavailable);
}

TEST(StatusTest, StatusCodeToStringCoversEveryCode) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInvalidArgument),
            "INVALID_ARGUMENT");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_EQ(StatusCodeToString(StatusCode::kAlreadyExists),
            "ALREADY_EXISTS");
  EXPECT_EQ(StatusCodeToString(StatusCode::kFailedPrecondition),
            "FAILED_PRECONDITION");
  EXPECT_EQ(StatusCodeToString(StatusCode::kOutOfRange), "OUT_OF_RANGE");
  EXPECT_EQ(StatusCodeToString(StatusCode::kUnimplemented), "UNIMPLEMENTED");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInternal), "INTERNAL");
  EXPECT_EQ(StatusCodeToString(StatusCode::kResourceExhausted),
            "RESOURCE_EXHAUSTED");
  EXPECT_EQ(StatusCodeToString(StatusCode::kUnavailable), "UNAVAILABLE");
}

TEST(StatusTest, ToStringFormatsCodeColonMessage) {
  // The "<CODE>: <message>" shape is what fuzz targets, corruption tests,
  // and the CLI print — pin it for every code, including edge messages.
  EXPECT_EQ(NotFoundError("").ToString(), "NOT_FOUND: ");
  EXPECT_EQ(InternalError("a: b: c").ToString(), "INTERNAL: a: b: c");
  const std::string weird = "newline\nand\ttab";
  EXPECT_EQ(InvalidArgumentError(weird).ToString(),
            "INVALID_ARGUMENT: " + weird);
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(OkStatus(), Status());
  EXPECT_EQ(NotFoundError("a"), NotFoundError("a"));
  EXPECT_FALSE(NotFoundError("a") == NotFoundError("b"));
  EXPECT_FALSE(NotFoundError("a") == InternalError("a"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = NotFoundError("missing");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.value_or(-1), -1);
}

TEST(StatusOrTest, ValueOrPrefersValue) {
  StatusOr<std::string> result = std::string("hello");
  EXPECT_EQ(result.value_or("fallback"), "hello");
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::unique_ptr<int>> result = std::make_unique<int>(7);
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> owned = std::move(result).value();
  EXPECT_EQ(*owned, 7);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return InvalidArgumentError("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  ASSIGN_OR_RETURN(int half, Half(x));
  *out = half;
  return OkStatus();
}

TEST(StatusMacrosTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UseHalf(7, &out).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(out, 5);  // untouched on error
}

Status FailThrough() {
  RETURN_IF_ERROR(OkStatus());
  RETURN_IF_ERROR(InternalError("boom"));
  return OkStatus();
}

TEST(StatusMacrosTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(FailThrough().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace jim::util
