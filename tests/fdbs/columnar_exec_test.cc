// Columnar execution parity: the same query run with ExecContext::columnar
// on and off must produce identical tables, identical PipelineStats counts,
// and identical errors-or-success for every construct — vectorized filters,
// three-valued logic over NULLs, non-vectorizable fallbacks (CASE, function
// calls), casts, and the columnar lateral/cross-scan transports.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/column_batch.h"
#include "common/row_source.h"
#include "fdbs/database.h"
#include "fdbs/eval.h"
#include "sql/parser.h"

namespace fedflow::fdbs {
namespace {

/// Seq(n): rows 1..n in column v.
class SeqFunction : public TableFunction {
 public:
  SeqFunction() {
    params_ = {Column{"n", DataType::kInt}};
    schema_.AddColumn("v", DataType::kInt);
  }
  const std::string& name() const override {
    static const std::string kName = "Seq";
    return kName;
  }
  const std::vector<Column>& params() const override { return params_; }
  const Schema& result_schema() const override { return schema_; }
  Result<RowSourcePtr> InvokeStream(const std::vector<Value>& args,
                                    ExecContext&, size_t batch_size) override {
    Table t(schema_);
    for (int i = 1; i <= args[0].AsInt(); ++i) {
      t.AppendRowUnchecked({Value::Int(i)});
    }
    return MakeTableSource(std::move(t), batch_size);
  }
  std::vector<Column> params_;
  Schema schema_;
};

class ColumnarExecTest : public ::testing::Test {
 protected:
  ColumnarExecTest() {
    EXPECT_TRUE(db_.Execute("CREATE TABLE t (id INT, name VARCHAR, w DOUBLE)")
                    .ok());
    EXPECT_TRUE(db_.Execute("INSERT INTO t VALUES "
                            "(1, 'alpha', 0.5), (2, 'beta', 1.5), "
                            "(3, 'alpha', 2.5), (4, NULL, NULL), "
                            "(NULL, 'gamma', -0.5), (6, 'delta', 3.25)")
                    .ok());
    EXPECT_TRUE(
        db_.catalog().RegisterTableFunction(std::make_shared<SeqFunction>())
            .ok());
  }

  Result<Table> Run(const std::string& sql, bool columnar,
                    PipelineStats* stats) {
    ExecContext ctx;
    ctx.columnar = columnar;
    ctx.pipeline_stats = stats;
    return db_.Execute(sql, ctx);
  }

  /// Runs `sql` both ways and requires identical outcomes: same status code,
  /// same table (types and payloads), same rows/batches crossing operator
  /// boundaries. Returns the columnar result for extra assertions.
  Result<Table> ExpectParity(const std::string& sql) {
    PipelineStats row_stats;
    PipelineStats col_stats;
    Result<Table> row = Run(sql, /*columnar=*/false, &row_stats);
    Result<Table> col = Run(sql, /*columnar=*/true, &col_stats);
    EXPECT_EQ(row.ok(), col.ok())
        << sql << "\n row: " << row.status() << "\n col: " << col.status();
    if (!row.ok() || !col.ok()) {
      if (!row.ok() && !col.ok()) {
        EXPECT_EQ(row.status().code(), col.status().code()) << sql;
      }
      return col;
    }
    EXPECT_EQ(row->num_rows(), col->num_rows()) << sql;
    EXPECT_EQ(row->schema().num_columns(), col->schema().num_columns()) << sql;
    for (size_t c = 0; c < row->schema().num_columns(); ++c) {
      EXPECT_EQ(row->schema().columns()[c].name,
                col->schema().columns()[c].name)
          << sql;
    }
    for (size_t r = 0; r < row->num_rows(); ++r) {
      for (size_t c = 0; c < row->schema().num_columns(); ++c) {
        const Value& a = row->rows()[r][c];
        const Value& b = col->rows()[r][c];
        EXPECT_EQ(a.type(), b.type())
            << sql << " at (" << r << "," << c << ")";
        EXPECT_EQ(a.ToString(), b.ToString())
            << sql << " at (" << r << "," << c << ")";
      }
    }
    EXPECT_EQ(row_stats.rows_emitted, col_stats.rows_emitted) << sql;
    EXPECT_EQ(row_stats.batches_emitted, col_stats.batches_emitted) << sql;
    EXPECT_EQ(row_stats.peak_resident_rows, col_stats.peak_resident_rows)
        << sql;
    return col;
  }

  Database db_;
};

TEST_F(ColumnarExecTest, VectorizedComparisonFilters) {
  ExpectParity("SELECT id FROM t WHERE id > 2");
  ExpectParity("SELECT id FROM t WHERE id >= 2 AND id <= 4");
  ExpectParity("SELECT name FROM t WHERE name = 'alpha'");
  ExpectParity("SELECT name FROM t WHERE name <> 'alpha'");
  ExpectParity("SELECT w FROM t WHERE w < 2.0");
  // Mixed int/double comparison promotes to double in both paths.
  ExpectParity("SELECT id FROM t WHERE id > 1.5");
}

TEST_F(ColumnarExecTest, NullSemanticsInFilters) {
  // NULL comparisons are UNKNOWN and the row is dropped, never kept.
  ExpectParity("SELECT id FROM t WHERE id > 0");
  ExpectParity("SELECT id FROM t WHERE name = 'gamma'");
  ExpectParity("SELECT id FROM t WHERE id IS NULL");
  ExpectParity("SELECT id FROM t WHERE id IS NOT NULL");
  ExpectParity("SELECT id FROM t WHERE w IS NULL OR w > 1.0");
}

TEST_F(ColumnarExecTest, ThreeValuedAndOr) {
  // NULL AND FALSE = FALSE (dropped), NULL OR TRUE = TRUE (kept): the
  // vectorized sub-selection evaluation must reproduce the exact Kleene
  // table, not just "null means drop".
  ExpectParity("SELECT id FROM t WHERE id > 0 OR name = 'gamma'");
  ExpectParity("SELECT id FROM t WHERE id > 0 AND name <> 'beta'");
  ExpectParity("SELECT id FROM t WHERE NOT (id > 2)");
  ExpectParity("SELECT id FROM t WHERE id % 2 = 0 OR w > 2.0");
}

TEST_F(ColumnarExecTest, ArithmeticInPredicates) {
  ExpectParity("SELECT id FROM t WHERE id * 2 + 1 > 5");
  ExpectParity("SELECT id FROM t WHERE id % 2 = 1");
  ExpectParity("SELECT id FROM t WHERE -id < -2");
  ExpectParity("SELECT id FROM t WHERE w * 2.0 > id");
  // Integer overflow promotion: id * big constant exceeds int32.
  ExpectParity("SELECT id FROM t WHERE id * 1000000000 > 2500000000");
}

TEST_F(ColumnarExecTest, ErrorsSurfaceInBothPaths) {
  // Division by zero inside a predicate errors in both paths with the same
  // status code (the failing row may differ; see DESIGN.md).
  ExpectParity("SELECT id FROM t WHERE id / 0 > 1");
  ExpectParity("SELECT id FROM t WHERE id % 0 = 1");
  // Varchar in a numeric context errors in both paths.
  ExpectParity("SELECT id FROM t WHERE name + 1 > 0");
}

TEST_F(ColumnarExecTest, NonVectorizableFallbacks) {
  // CASE and LIKE-with-computed-pattern compile to the row filter; the
  // columnar transport must still work end to end around it.
  ExpectParity(
      "SELECT id FROM t WHERE CASE WHEN id > 2 THEN 1 ELSE 0 END = 1");
  ExpectParity("SELECT name FROM t WHERE name LIKE 'a%'");
  ExpectParity("SELECT name FROM t WHERE UPPER(name) = 'ALPHA'");
}

TEST_F(ColumnarExecTest, LateralChainParity) {
  ExpectParity(
      "SELECT a.v, b.v FROM TABLE (Seq(5)) AS a, TABLE (Seq(a.v)) AS b "
      "WHERE b.v % 2 = 1");
  ExpectParity(
      "SELECT a.v, b.v FROM TABLE (Seq(4)) AS a, TABLE (Seq(3)) AS b "
      "WHERE a.v > b.v");
}

TEST_F(ColumnarExecTest, ProjectionAndExpressionsParity) {
  ExpectParity("SELECT id * 2, name FROM t WHERE id > 1");
  ExpectParity("SELECT * FROM t WHERE id >= 1");
  ExpectParity("SELECT id FROM t WHERE id > 0 ORDER BY id DESC");
  ExpectParity("SELECT DISTINCT name FROM t WHERE name IS NOT NULL");
  ExpectParity("SELECT COUNT(*) FROM t WHERE id > 1");
  ExpectParity("SELECT id FROM t WHERE id > 0 LIMIT 2");
}

TEST_F(ColumnarExecTest, ColumnarRecordsColumnarBatches) {
  PipelineStats stats;
  ASSERT_TRUE(Run("SELECT id FROM t WHERE id > 2", true, &stats).ok());
  EXPECT_GT(stats.columnar_batches, 0u);

  PipelineStats row_stats;
  ASSERT_TRUE(Run("SELECT id FROM t WHERE id > 2", false, &row_stats).ok());
  EXPECT_EQ(row_stats.columnar_batches, 0u);
}

// ---- VectorPredicate unit coverage (compile + selection semantics) ----

class VectorPredicateTest : public ::testing::Test {
 protected:
  VectorPredicateTest() {
    schema_.AddColumn("id", DataType::kInt);
    schema_.AddColumn("s", DataType::kVarchar);
    scope_.AddBinding("t", &schema_, /*offset=*/0);
  }

  /// Compiles `expr_sql` against a one-table scope over (id INT, s VARCHAR).
  std::optional<VectorPredicate> Compile(const std::string& expr_sql) {
    auto parsed = sql::ParseExpression(expr_sql);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    if (!parsed.ok()) return std::nullopt;
    expr_ = *parsed;
    return VectorPredicate::Compile(*expr_, scope_);
  }

  ColumnBatch MakeBatch() {
    return ColumnBatch::FromRows(
        schema_, {{Value::Int(1), Value::Varchar("aa")},
                  {Value::Int(2), Value::Varchar("ab")},
                  {Value::Null(), Value::Varchar("bb")},
                  {Value::Int(4), Value::Null()}});
  }

  Schema schema_;
  RowScope scope_;
  sql::ExprPtr expr_;
};

TEST_F(VectorPredicateTest, SelectsMatchingRows) {
  auto pred = Compile("id >= 2");
  ASSERT_TRUE(pred.has_value());
  ColumnBatch batch = MakeBatch();
  std::vector<uint32_t> sel = {0, 1, 2, 3};
  ASSERT_TRUE(pred->FilterSelection(batch, &sel).ok());
  EXPECT_EQ(sel, (std::vector<uint32_t>{1, 3}));
}

TEST_F(VectorPredicateTest, LikeOnVarchar) {
  auto pred = Compile("s LIKE 'a%'");
  ASSERT_TRUE(pred.has_value());
  ColumnBatch batch = MakeBatch();
  std::vector<uint32_t> sel = {0, 1, 2, 3};
  ASSERT_TRUE(pred->FilterSelection(batch, &sel).ok());
  EXPECT_EQ(sel, (std::vector<uint32_t>{0, 1}));
}

TEST_F(VectorPredicateTest, RespectsIncomingSelection) {
  auto pred = Compile("id >= 1");
  ASSERT_TRUE(pred.has_value());
  ColumnBatch batch = MakeBatch();
  std::vector<uint32_t> sel = {3, 1};  // pre-filtered, order preserved
  ASSERT_TRUE(pred->FilterSelection(batch, &sel).ok());
  EXPECT_EQ(sel, (std::vector<uint32_t>{3, 1}));
}

TEST_F(VectorPredicateTest, NonVectorizableReturnsNullopt) {
  EXPECT_FALSE(Compile("UPPER(s) = 'AA'").has_value());
  EXPECT_FALSE(Compile("CASE WHEN id > 1 THEN 1 ELSE 0 END = 1").has_value());
}

TEST_F(VectorPredicateTest, UnknownColumnReturnsNullopt) {
  EXPECT_FALSE(Compile("missing > 1").has_value());
}

}  // namespace
}  // namespace fedflow::fdbs
