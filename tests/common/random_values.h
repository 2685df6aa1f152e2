// Value helpers shared by the tests of the row <-> columnar round trip and of
// the RMI wire decoder: exact value equality and a seeded random value of a
// given type.
#ifndef FEDFLOW_TESTS_COMMON_RANDOM_VALUES_H_
#define FEDFLOW_TESTS_COMMON_RANDOM_VALUES_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "common/value.h"

namespace fedflow {

/// Exact equality: same type AND same payload. Stricter than Value::Compare
/// (which treats Int(3) and BigInt(3) as equal).
inline bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case DataType::kNull:
      return true;
    case DataType::kBool:
      return a.AsBool() == b.AsBool();
    case DataType::kInt:
      return a.AsInt() == b.AsInt();
    case DataType::kBigInt:
      return a.AsBigInt() == b.AsBigInt();
    case DataType::kDouble:
      return a.AsDouble() == b.AsDouble();
    case DataType::kVarchar:
      return a.AsVarchar() == b.AsVarchar();
  }
  return false;
}

inline void ExpectRowsEqual(const std::vector<Row>& expected,
                            const std::vector<Row>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t r = 0; r < expected.size(); ++r) {
    ASSERT_EQ(expected[r].size(), actual[r].size()) << "row " << r;
    for (size_t c = 0; c < expected[r].size(); ++c) {
      EXPECT_TRUE(SameValue(expected[r][c], actual[r][c]))
          << "row " << r << " col " << c << ": "
          << expected[r][c].ToString() << " vs " << actual[r][c].ToString();
    }
  }
}

/// A value of the given type drawn from `rng`, NULL with probability 1/4.
inline Value RandomValue(DataType type, Rng* rng) {
  if (rng->Chance(0.25)) return Value::Null();
  switch (type) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kBool:
      return Value::Bool(rng->Chance(0.5));
    case DataType::kInt:
      return Value::Int(static_cast<int32_t>(rng->Uniform(-1000000, 1000000)));
    case DataType::kBigInt:
      return Value::BigInt(rng->Uniform(INT64_MIN / 4, INT64_MAX / 4));
    case DataType::kDouble:
      return Value::Double(rng->UniformDouble() * 1e9 - 5e8);
    case DataType::kVarchar:
      return Value::Varchar(rng->Word(rng->Uniform(0, 12)));
  }
  return Value::Null();
}

inline constexpr DataType kAllTypes[] = {DataType::kNull,   DataType::kBool,
                                         DataType::kInt,    DataType::kBigInt,
                                         DataType::kDouble, DataType::kVarchar};

}  // namespace fedflow

#endif  // FEDFLOW_TESTS_COMMON_RANDOM_VALUES_H_
