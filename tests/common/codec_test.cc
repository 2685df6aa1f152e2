#include "common/codec.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace fedflow {
namespace {

TEST(CodecTest, ValueRoundTripAllTypes) {
  const std::vector<Value> values = {
      Value::Null(),        Value::Bool(true),      Value::Bool(false),
      Value::Int(-17),      Value::BigInt(1LL << 50), Value::Double(3.25),
      Value::Varchar(""),   Value::Varchar("hello 'quoted'"),
  };
  for (const Value& v : values) {
    ByteWriter w;
    w.PutValue(v);
    ByteReader r(w.buffer());
    auto decoded = r.GetValue();
    ASSERT_TRUE(decoded.ok()) << v;
    EXPECT_EQ(*decoded, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(CodecTest, RowRoundTrip) {
  Row row = {Value::Int(1), Value::Null(), Value::Varchar("x")};
  ByteWriter w;
  w.PutRow(row);
  ByteReader r(w.buffer());
  auto decoded = r.GetRow();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, row);
}

TEST(CodecTest, TableRoundTrip) {
  Schema schema;
  schema.AddColumn("a", DataType::kInt);
  schema.AddColumn("b", DataType::kVarchar);
  Table t(schema);
  ASSERT_TRUE(t.AppendRow({Value::Int(1), Value::Varchar("one")}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Int(2), Value::Null()}).ok());
  ByteWriter w;
  w.PutTable(t);
  ByteReader r(w.buffer());
  auto decoded = r.GetTable();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, t);
}

TEST(CodecTest, EmptyTableRoundTrip) {
  Schema schema;
  schema.AddColumn("only", DataType::kDouble);
  Table t(schema);
  ByteWriter w;
  w.PutTable(t);
  ByteReader r(w.buffer());
  auto decoded = r.GetTable();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, t);
}

TEST(CodecTest, TruncatedBufferFails) {
  ByteWriter w;
  w.PutValue(Value::Varchar("a long enough string"));
  std::vector<uint8_t> truncated(w.buffer().begin(), w.buffer().end() - 3);
  ByteReader r(truncated);
  EXPECT_FALSE(r.GetValue().ok());
  // A row arity the bytes left cannot hold (each value needs its tag byte).
  const std::vector<uint8_t> huge_arity = {0xFF, 0xFF, 0xFF, 0xFF};
  ByteReader rows(huge_arity);
  auto row = rows.GetRow();
  ASSERT_FALSE(row.ok());
  EXPECT_EQ(row.status().code(), StatusCode::kExecutionError);
}

TEST(CodecTest, BadTagFails) {
  std::vector<uint8_t> buf = {0xFF};
  ByteReader r(buf);
  auto v = r.GetValue();
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kExecutionError);
}

TEST(CodecTest, StringWithEmbeddedNulBytes) {
  std::string s("a\0b\0c", 5);
  ByteWriter w;
  w.PutString(s);
  ByteReader r(w.buffer());
  auto decoded = r.GetString();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, s);
}

// Property sweep: random rows survive the round trip bit-exactly.
class CodecPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecPropertyTest, RandomRowRoundTrip) {
  Rng rng(GetParam());
  Row row;
  const int n = static_cast<int>(rng.Uniform(0, 12));
  for (int i = 0; i < n; ++i) {
    switch (rng.Uniform(0, 4)) {
      case 0:
        row.push_back(Value::Null());
        break;
      case 1:
        row.push_back(Value::Int(static_cast<int32_t>(
            rng.Uniform(INT32_MIN, INT32_MAX))));
        break;
      case 2:
        row.push_back(Value::BigInt(static_cast<int64_t>(rng.Next())));
        break;
      case 3:
        row.push_back(Value::Double(rng.UniformDouble() * 1e9));
        break;
      default:
        row.push_back(Value::Varchar(rng.Word(rng.Uniform(0, 30))));
        break;
    }
  }
  ByteWriter w;
  w.PutRow(row);
  ByteReader r(w.buffer());
  auto decoded = r.GetRow();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, row);
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecPropertyTest,
                         ::testing::Range<uint64_t>(0, 25));

}  // namespace
}  // namespace fedflow
