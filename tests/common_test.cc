#include <gtest/gtest.h>

#include "common/name_table.h"
#include "common/status.h"

namespace smoqe {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

StatusOr<int> Doubled(int x) {
  SMOQE_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(StatusOrTest, ValueAndErrorPaths) {
  StatusOr<int> good = ParsePositive(21);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 21);

  StatusOr<int> bad = ParsePositive(-1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubled(4).value(), 8);
  EXPECT_FALSE(Doubled(0).ok());
}

TEST(StatusOrTest, TakeMovesValue) {
  StatusOr<std::string> s = std::string("hello");
  ASSERT_TRUE(s.ok());
  std::string v = s.take();
  EXPECT_EQ(v, "hello");
}

TEST(NameTableTest, InternIsIdempotent) {
  NameTable t;
  LabelId a = t.Intern("patient");
  LabelId b = t.Intern("doctor");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.Intern("patient"), a);
  EXPECT_EQ(t.size(), 2);
}

TEST(NameTableTest, LookupMissReturnsNoLabel) {
  NameTable t;
  EXPECT_EQ(t.Lookup("absent"), kNoLabel);
  t.Intern("present");
  EXPECT_EQ(t.Lookup("present"), 0);
  EXPECT_EQ(t.Lookup("absent"), kNoLabel);
}

TEST(NameTableTest, NameRoundTrips) {
  NameTable t;
  LabelId id = t.Intern("diagnosis");
  EXPECT_EQ(t.name(id), "diagnosis");
}

TEST(NameTableTest, ManyLabels) {
  NameTable t;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(t.Intern("label" + std::to_string(i)), i);
  }
  EXPECT_EQ(t.size(), 1000);
  EXPECT_EQ(t.Lookup("label999"), 999);
}

}  // namespace
}  // namespace smoqe
