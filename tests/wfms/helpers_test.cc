#include "wfms/helpers.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/rng.h"

namespace fedflow::wfms {
namespace {

Table OneRow(std::vector<std::pair<std::string, Value>> cells) {
  Schema s;
  Row row;
  for (auto& [name, v] : cells) {
    s.AddColumn(name, v.is_null() ? DataType::kVarchar : v.type());
    row.push_back(v);
  }
  Table t(s);
  t.AppendRowUnchecked(std::move(row));
  return t;
}

TEST(HelpersTest, IdentityReturnsInput) {
  Table in = OneRow({{"x", Value::Int(1)}});
  auto out = MakeIdentityHelper()({&in});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, in);
  EXPECT_FALSE(MakeIdentityHelper()({&in, &in}).ok());
}

TEST(HelpersTest, CastChangesColumnTypeKeepingOthers) {
  Table in = OneRow({{"a", Value::Int(5)}, {"b", Value::Varchar("x")}});
  auto out = MakeCastHelper("a", DataType::kBigInt)({&in});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema().column(0).type, DataType::kBigInt);
  EXPECT_EQ(out->schema().column(1).type, DataType::kVarchar);
  EXPECT_EQ(out->rows()[0][0].AsBigInt(), 5);
}

TEST(HelpersTest, CastUnknownColumnFails) {
  Table in = OneRow({{"a", Value::Int(5)}});
  EXPECT_FALSE(MakeCastHelper("zz", DataType::kBigInt)({&in}).ok());
}

TEST(HelpersTest, CastFailureSurfaces) {
  Table in = OneRow({{"a", Value::Varchar("not a number")}});
  EXPECT_FALSE(MakeCastHelper("a", DataType::kInt)({&in}).ok());
}

TEST(HelpersTest, RenameReplacesColumnNames) {
  Table in = OneRow({{"a", Value::Int(1)}, {"b", Value::Int(2)}});
  auto out = MakeRenameHelper({"x", "y"})({&in});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema().column(0).name, "x");
  EXPECT_FALSE(MakeRenameHelper({"only_one"})({&in}).ok());
}

TEST(HelpersTest, ConcatCombinesSingleRows) {
  Table a = OneRow({{"x", Value::Int(1)}});
  Table b = OneRow({{"y", Value::Varchar("v")}});
  auto out = MakeConcatHelper()({&a, &b});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema().num_columns(), 2u);
  EXPECT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->rows()[0][1].AsVarchar(), "v");
}

TEST(HelpersTest, ConcatRejectsMultiRowInput) {
  Table a = OneRow({{"x", Value::Int(1)}});
  Table multi = a;
  multi.AppendRowUnchecked({Value::Int(2)});
  EXPECT_FALSE(MakeConcatHelper()({&multi}).ok());
  EXPECT_FALSE(MakeConcatHelper()({}).ok());
}

TEST(HelpersTest, UnionAllStacksRows) {
  Table a = OneRow({{"x", Value::Int(1)}});
  Table b = OneRow({{"x", Value::Int(2)}});
  auto out = MakeUnionAllHelper()({&a, &b});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 2u);
}

TEST(HelpersTest, UnionAllSkipsDeadBranchPlaceholders) {
  Table a = OneRow({{"x", Value::Int(1)}});
  Table dead;  // zero columns = dead-path placeholder
  auto out = MakeUnionAllHelper()({&dead, &a});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 1u);
  auto all_dead = MakeUnionAllHelper()({&dead});
  ASSERT_TRUE(all_dead.ok());
  EXPECT_EQ(all_dead->num_rows(), 0u);
}

TEST(HelpersTest, UnionAllArityMismatchFails) {
  Table a = OneRow({{"x", Value::Int(1)}});
  Table b = OneRow({{"x", Value::Int(1)}, {"y", Value::Int(2)}});
  EXPECT_FALSE(MakeUnionAllHelper()({&a, &b}).ok());
}

TEST(HelpersTest, JoinMatchesEqualKeys) {
  Schema ls;
  ls.AddColumn("SubCompNo", DataType::kInt);
  Table left(ls);
  left.AppendRowUnchecked({Value::Int(1)});
  left.AppendRowUnchecked({Value::Int(2)});
  left.AppendRowUnchecked({Value::Int(3)});
  Schema rs;
  rs.AddColumn("CompNo", DataType::kInt);
  rs.AddColumn("SupplierNo", DataType::kInt);
  Table right(rs);
  right.AppendRowUnchecked({Value::Int(2), Value::Int(100)});
  right.AppendRowUnchecked({Value::Int(2), Value::Int(200)});
  right.AppendRowUnchecked({Value::Int(9), Value::Int(300)});

  auto out = MakeJoinHelper("SubCompNo", "CompNo")({&left, &right});
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->schema().num_columns(), 3u);
  ASSERT_EQ(out->num_rows(), 2u);
  EXPECT_EQ(out->rows()[0][0].AsInt(), 2);
}

TEST(HelpersTest, JoinAcrossNumericWidths) {
  Schema ls;
  ls.AddColumn("k", DataType::kInt);
  Table left(ls);
  left.AppendRowUnchecked({Value::Int(7)});
  Schema rs;
  rs.AddColumn("k2", DataType::kBigInt);
  Table right(rs);
  right.AppendRowUnchecked({Value::BigInt(7)});
  auto out = MakeJoinHelper("k", "k2")({&left, &right});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 1u);
}

TEST(HelpersTest, JoinNullKeysNeverMatch) {
  Schema s;
  s.AddColumn("k", DataType::kInt);
  Table left(s);
  left.AppendRowUnchecked({Value::Null()});
  Table right(s);
  right.AppendRowUnchecked({Value::Null()});
  auto out = MakeJoinHelper("k", "k")({&left, &right});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 0u);
}

TEST(HelpersTest, JoinRequiresTwoInputsAndKnownColumns) {
  Table a = OneRow({{"x", Value::Int(1)}});
  EXPECT_FALSE(MakeJoinHelper("x", "x")({&a}).ok());
  EXPECT_FALSE(MakeJoinHelper("zz", "x")({&a, &a}).ok());
}

TEST(HelpersTest, IndexJoinRejectsBadArityAndKeyIndexes) {
  Table a = OneRow({{"x", Value::Int(1)}});
  EXPECT_FALSE(MakeIndexJoinHelper(0, 0)({&a}).ok());
  auto out = MakeIndexJoinHelper(1, 0)({&a, &a});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInternal);
}

/// The join as it was before its flat index, kept verbatim as the reference:
/// the right input goes into an unordered_multimap keyed by hash, and every
/// left row probes it.
Table ReferenceJoin(const Table& left, const Table& right, size_t left_index,
                    size_t right_index) {
  std::unordered_multimap<size_t, size_t> index;
  index.reserve(right.num_rows());
  for (size_t r = 0; r < right.num_rows(); ++r) {
    index.emplace(right.rows()[r][right_index].Hash(), r);
  }
  Table out(left.schema().Concat(right.schema()));
  for (const Row& lrow : left.rows()) {
    auto [lo, hi] = index.equal_range(lrow[left_index].Hash());
    for (auto it = lo; it != hi; ++it) {
      const Row& rrow = right.rows()[it->second];
      if (!lrow[left_index].SqlEquals(rrow[right_index])) continue;
      Row combined = lrow;
      combined.insert(combined.end(), rrow.begin(), rrow.end());
      out.AppendRowUnchecked(std::move(combined));
    }
  }
  return out;
}

/// A key from a small domain, so keys repeat: NULL, BOOL, INT, BIGINT,
/// integral and fractional DOUBLE, and VARCHAR. The numbers are multiples of
/// `stride`; a large power of two makes integer keys that differ only in
/// their high bits.
Value RandomKey(Rng& rng, int64_t stride) {
  const int64_t base = rng.Uniform(0, 4);
  const int64_t k = base * stride;
  switch (rng.Uniform(0, 6)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Bool(base % 2 == 1);
    case 2:
      return Value::Int(static_cast<int32_t>(k));
    case 3:
      return Value::BigInt(k);
    case 4:
      return Value::Double(static_cast<double>(k));
    case 5:
      return Value::Double(static_cast<double>(k) + 0.5);
    default:
      return Value::Varchar(std::to_string(k));
  }
}

/// Two columns: the key at position `key`, the row number in the other, so
/// the join's output order shows.
Table RandomKeyTable(Rng& rng, size_t rows, size_t key, int64_t stride,
                     const std::string& prefix) {
  Schema s;
  for (size_t c = 0; c < 2; ++c) {
    if (c == key) {
      s.AddColumn(prefix + "key", DataType::kInt);
    } else {
      s.AddColumn(prefix + "row", DataType::kBigInt);
    }
  }
  Table t(s);
  for (size_t r = 0; r < rows; ++r) {
    Row row(2);
    row[key] = RandomKey(rng, stride);
    row[1 - key] = Value::BigInt(static_cast<int64_t>(r));
    t.AppendRowUnchecked(std::move(row));
  }
  return t;
}

TEST(HelpersTest, IndexJoinMatchesTheMultimapJoinRowForRow) {
  Rng rng(20);
  auto random_size = [&rng]() -> size_t {
    if (rng.Chance(0.1)) return 0;
    if (rng.Chance(0.02)) return static_cast<size_t>(rng.Uniform(500, 1500));
    return static_cast<size_t>(rng.Uniform(1, 24));
  };
  int left_smaller = 0;
  int right_smaller = 0;
  int equal_sizes = 0;
  int empty = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t lk = static_cast<size_t>(rng.Uniform(0, 1));
    const size_t rk = static_cast<size_t>(rng.Uniform(0, 1));
    // A stride of 1, 2^12, 2^16 or 2^28: multiples of a large power of two
    // share all their low bits.
    const int64_t stride = int64_t{1} << (16 * rng.Uniform(0, 1) +
                                          12 * rng.Uniform(0, 1));
    const Table left = RandomKeyTable(rng, random_size(), lk, stride, "l");
    const Table right = RandomKeyTable(rng, random_size(), rk, stride, "r");
    if (left.num_rows() == 0 || right.num_rows() == 0) {
      ++empty;
    } else if (left.num_rows() < right.num_rows()) {
      ++left_smaller;
    } else if (left.num_rows() > right.num_rows()) {
      ++right_smaller;
    } else {
      ++equal_sizes;
    }
    const Table want = ReferenceJoin(left, right, lk, rk);
    auto by_index = MakeIndexJoinHelper(lk, rk)({&left, &right});
    ASSERT_TRUE(by_index.ok()) << by_index.status();
    ASSERT_TRUE(*by_index == want)
        << "trial " << trial << ": " << left.num_rows() << " x "
        << right.num_rows() << " rows";
    auto by_name = MakeJoinHelper(left.schema().column(lk).name,
                                  right.schema().column(rk).name)(
        {&left, &right});
    ASSERT_TRUE(by_name.ok()) << by_name.status();
    ASSERT_TRUE(*by_name == want) << "trial " << trial;
  }
  EXPECT_GT(left_smaller, 100);
  EXPECT_GT(right_smaller, 100);
  EXPECT_GT(equal_sizes, 10);
  EXPECT_GT(empty, 100);
}

TEST(HelpersTest, ProjectSelectsAndReorders) {
  Table in = OneRow({{"a", Value::Int(1)}, {"b", Value::Int(2)},
                     {"c", Value::Int(3)}});
  auto out = MakeProjectHelper({"c", "a"})({&in});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema().column(0).name, "c");
  EXPECT_EQ(out->rows()[0][0].AsInt(), 3);
  EXPECT_EQ(out->rows()[0][1].AsInt(), 1);
  EXPECT_FALSE(MakeProjectHelper({"zz"})({&in}).ok());
}

TEST(HelpersTest, ConstIgnoresInputs) {
  auto out = MakeConstHelper("k", Value::Varchar("c"))({});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->rows()[0][0].AsVarchar(), "c");
}

}  // namespace
}  // namespace fedflow::wfms
