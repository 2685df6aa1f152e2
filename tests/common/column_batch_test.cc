// ColumnBatch: the row <-> columnar round-trip contract. Conversion must be
// lossless for every DataType, for NULLs, for empty batches, and for columns
// whose values do not match the declared type (the generic degradation) —
// the invariant the columnar execution path's "bit-identical results"
// guarantee rests on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/column_batch.h"
#include "common/rng.h"
#include "common/schema.h"
#include "common/value.h"
#include "random_values.h"

namespace fedflow {
namespace {

TEST(ColumnBatchTest, RoundTripEveryTypeWithNulls) {
  Rng rng(0x5eed);
  for (DataType type : kAllTypes) {
    Schema schema;
    schema.AddColumn("c", type);
    for (int trial = 0; trial < 8; ++trial) {
      const size_t n = static_cast<size_t>(rng.Uniform(0, 40));
      std::vector<Row> rows;
      for (size_t i = 0; i < n; ++i) rows.push_back({RandomValue(type, &rng)});
      const std::vector<Row> expected = rows;

      ColumnBatch batch = ColumnBatch::FromRows(schema, std::move(rows));
      ASSERT_EQ(batch.num_rows(), n);
      ExpectRowsEqual(expected, batch.ToRows());
      // ToRows must not consume the batch; TakeRows empties it.
      ExpectRowsEqual(expected, batch.TakeRows());
      EXPECT_EQ(batch.num_rows(), 0u);
    }
  }
}

TEST(ColumnBatchTest, RoundTripMixedSchemaAllTypesAtOnce) {
  Rng rng(0xc01);
  Schema schema;
  for (DataType type : kAllTypes) {
    schema.AddColumn("c" + std::to_string(static_cast<int>(type)), type);
  }
  for (int trial = 0; trial < 16; ++trial) {
    const size_t n = static_cast<size_t>(rng.Uniform(0, 64));
    std::vector<Row> rows;
    for (size_t i = 0; i < n; ++i) {
      Row row;
      for (DataType type : kAllTypes) row.push_back(RandomValue(type, &rng));
      rows.push_back(std::move(row));
    }
    const std::vector<Row> expected = rows;
    ColumnBatch batch = ColumnBatch::FromRowsCopy(schema, rows);
    ExpectRowsEqual(expected, rows);  // copy variant leaves the source intact
    ExpectRowsEqual(expected, batch.ToRows());
  }
}

TEST(ColumnBatchTest, RoundTripEmptyBatch) {
  Schema schema;
  schema.AddColumn("a", DataType::kInt);
  schema.AddColumn("b", DataType::kVarchar);
  ColumnBatch batch = ColumnBatch::FromRows(schema, {});
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.num_columns(), 2u);
  EXPECT_TRUE(batch.ToRows().empty());
  EXPECT_TRUE(batch.TakeRows().empty());
}

TEST(ColumnBatchTest, MistypedValuesDegradeToGenericLosslessly) {
  // Declared kInt, but the rows carry every other type — the column must
  // degrade to the generic representation and still round-trip exactly.
  Schema schema;
  schema.AddColumn("c", DataType::kInt);
  std::vector<Row> rows = {
      {Value::Int(1)},           {Value::BigInt(1) },
      {Value::Double(1.5)},      {Value::Varchar("one")},
      {Value::Bool(true)},       {Value::Null()},
      {Value::Int(-2147483647)},
  };
  const std::vector<Row> expected = rows;
  ColumnBatch batch = ColumnBatch::FromRows(schema, std::move(rows));
  EXPECT_TRUE(batch.column(0).is_generic());
  ExpectRowsEqual(expected, batch.ToRows());
  ExpectRowsEqual(expected, batch.TakeRows());
}

TEST(ColumnBatchTest, TypedColumnStaysTypedAndNullMapMatches) {
  Schema schema;
  schema.AddColumn("c", DataType::kBigInt);
  std::vector<Row> rows = {{Value::BigInt(7)},
                           {Value::Null()},
                           {Value::BigInt(-9)}};
  ColumnBatch batch = ColumnBatch::FromRows(schema, std::move(rows));
  const ColumnData& col = batch.column(0);
  EXPECT_FALSE(col.is_generic());
  ASSERT_EQ(col.size(), 3u);
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_FALSE(col.IsNull(2));
  EXPECT_EQ(col.bigint_data()[0], 7);
  EXPECT_EQ(col.bigint_data()[2], -9);
}

TEST(ColumnBatchTest, CastToMatchesScalarCastSemantics) {
  // Column-wise CastTo must agree with Value::CastTo on every value,
  // including NULL propagation, numeric widening, and varchar parses.
  Rng rng(0xca57);
  for (DataType from : kAllTypes) {
    for (DataType to : kAllTypes) {
      ColumnData col(from);
      std::vector<Value> vals;
      for (int i = 0; i < 24; ++i) {
        Value v = RandomValue(from, &rng);
        if (from == DataType::kVarchar && !v.is_null()) {
          // Mix in parseable digit strings so varchar->int casts succeed.
          if (rng.Chance(0.5)) {
            v = Value::Varchar(std::to_string(rng.Uniform(-999, 999)));
          } else {
            continue;  // skip unparseable words for numeric targets
          }
        }
        vals.push_back(v);
        col.AppendValue(v);
      }
      auto casted = col.CastTo(to);
      // Compute the scalar expectation; the column result must agree on both
      // the status and every value.
      bool scalar_ok = true;
      std::vector<Value> expected;
      for (const Value& v : vals) {
        auto r = v.CastTo(to);
        if (!r.ok()) {
          scalar_ok = false;
          break;
        }
        expected.push_back(*r);
      }
      ASSERT_EQ(casted.ok(), scalar_ok)
          << DataTypeName(from) << "->" << DataTypeName(to) << ": "
          << (casted.ok() ? "ok" : casted.status().ToString());
      if (!casted.ok()) continue;
      ASSERT_EQ(casted->size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_TRUE(SameValue(expected[i], casted->GetValue(i)))
            << DataTypeName(from) << "->" << DataTypeName(to) << " row " << i;
      }
    }
  }
}

TEST(ColumnBatchTest, GatherSelectsInOrder) {
  Schema schema;
  schema.AddColumn("v", DataType::kInt);
  schema.AddColumn("s", DataType::kVarchar);
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back({Value::Int(i), Value::Varchar("r" + std::to_string(i))});
  }
  ColumnBatch batch = ColumnBatch::FromRows(schema, std::move(rows));
  ColumnBatch picked = batch.Gather({8, 1, 1, 5});
  ASSERT_EQ(picked.num_rows(), 4u);
  std::vector<Row> got = picked.ToRows();
  EXPECT_EQ(got[0][0].AsInt(), 8);
  EXPECT_EQ(got[1][0].AsInt(), 1);
  EXPECT_EQ(got[2][1].AsVarchar(), "r1");
  EXPECT_EQ(got[3][1].AsVarchar(), "r5");
}

TEST(ColumnBatchTest, AppendSplicedRepeatsPartialRow) {
  // The lateral-join inner loop: partial row (a, _, _) spliced with a
  // two-row fn result occupying columns [1, 3).
  Schema out;
  out.AddColumn("a", DataType::kInt);
  out.AddColumn("x", DataType::kInt);
  out.AddColumn("y", DataType::kVarchar);
  Schema fn_schema;
  fn_schema.AddColumn("x", DataType::kInt);
  fn_schema.AddColumn("y", DataType::kVarchar);
  ColumnBatch fn = ColumnBatch::FromRows(
      fn_schema,
      {{Value::Int(10), Value::Varchar("p")},
       {Value::Int(20), Value::Varchar("q")}});
  ColumnBatch acc(out);
  Row partial = {Value::Int(7), Value::Null(), Value::Null()};
  acc.AppendSpliced(partial, std::move(fn), /*offset=*/1);
  ASSERT_EQ(acc.num_rows(), 2u);
  std::vector<Row> got = acc.ToRows();
  EXPECT_EQ(got[0][0].AsInt(), 7);
  EXPECT_EQ(got[0][1].AsInt(), 10);
  EXPECT_EQ(got[0][2].AsVarchar(), "p");
  EXPECT_EQ(got[1][0].AsInt(), 7);
  EXPECT_EQ(got[1][1].AsInt(), 20);
  EXPECT_EQ(got[1][2].AsVarchar(), "q");
}

TEST(ColumnBatchTest, AppendBatchMovesAcrossRepresentations) {
  Rng rng(0xabba);
  Schema schema;
  schema.AddColumn("v", DataType::kVarchar);
  // First batch typed, second degraded (contains an int) — the append must
  // still produce a lossless whole.
  std::vector<Row> first = {{Value::Varchar("aa")}, {Value::Null()}};
  std::vector<Row> second = {{Value::Varchar("bb")}, {Value::Int(3)}};
  std::vector<Row> expected = first;
  expected.insert(expected.end(), second.begin(), second.end());
  ColumnBatch acc = ColumnBatch::FromRows(schema, std::move(first));
  acc.AppendBatch(ColumnBatch::FromRows(schema, std::move(second)));
  ASSERT_EQ(acc.num_rows(), 4u);
  ExpectRowsEqual(expected, acc.ToRows());
}

}  // namespace
}  // namespace fedflow
