#include "fdbs/executor.h"

#include <gtest/gtest.h>

#include "fdbs/database.h"
#include "sql/parser.h"

namespace fedflow::fdbs {
namespace {

/// A table function for tests: Seq(n) returns rows 1..n in column v, and
/// Pair(x) returns one row (x, x*10).
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
    ++invocations;
    return MakeTableSource(std::move(t), batch_size);
  }
  std::vector<Column> params_;
  Schema schema_;
  int invocations = 0;
};

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() {
    EXPECT_TRUE(db_.Execute("CREATE TABLE t (id INT, name VARCHAR)").ok());
    EXPECT_TRUE(db_.Execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), "
                            "(3, 'a'), (4, NULL)")
                    .ok());
    seq_ = std::make_shared<SeqFunction>();
    EXPECT_TRUE(db_.catalog().RegisterTableFunction(seq_).ok());
  }

  Table MustQuery(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    return r.ok() ? *r : Table();
  }

  Database db_;
  std::shared_ptr<SeqFunction> seq_;
};

TEST_F(ExecutorTest, SelectConstantWithoutFrom) {
  Table t = MustQuery("SELECT 1 + 1 AS two, 'x' AS s");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.rows()[0][0].AsInt(), 2);
  EXPECT_EQ(t.schema().column(0).name, "two");
}

TEST_F(ExecutorTest, FullScanAndProjection) {
  Table t = MustQuery("SELECT name FROM t");
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.schema().num_columns(), 1u);
}

TEST_F(ExecutorTest, StarExpansion) {
  Table t = MustQuery("SELECT * FROM t");
  EXPECT_EQ(t.schema().num_columns(), 2u);
  EXPECT_EQ(t.schema().column(0).name, "id");
}

TEST_F(ExecutorTest, WhereFiltersAndDropsNullComparisons) {
  Table t = MustQuery("SELECT id FROM t WHERE name = 'a'");
  EXPECT_EQ(t.num_rows(), 2u);
  // Row 4 has NULL name: comparison is unknown, row dropped, no error.
  Table n = MustQuery("SELECT id FROM t WHERE name <> 'a'");
  EXPECT_EQ(n.num_rows(), 1u);
}

TEST_F(ExecutorTest, IsNullPredicate) {
  Table t = MustQuery("SELECT id FROM t WHERE name IS NULL");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.rows()[0][0].AsInt(), 4);
}

TEST_F(ExecutorTest, CrossJoinOfBaseTables) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE u (k INT)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO u VALUES (10), (20)").ok());
  Table t = MustQuery("SELECT t.id, u.k FROM t, u");
  EXPECT_EQ(t.num_rows(), 8u);
}

TEST_F(ExecutorTest, JoinWithPredicate) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE u (id INT, w INT)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO u VALUES (1, 100), (3, 300)").ok());
  Table t = MustQuery(
      "SELECT t.name, u.w FROM t, u WHERE t.id = u.id ORDER BY u.w");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.rows()[0][1].AsInt(), 100);
  EXPECT_EQ(t.rows()[1][0].AsVarchar(), "a");
}

TEST_F(ExecutorTest, TableFunctionProducesRows) {
  Table t = MustQuery("SELECT F.v FROM TABLE (Seq(3)) AS F");
  EXPECT_EQ(t.num_rows(), 3u);
}

TEST_F(ExecutorTest, LateralCorrelationAgainstBaseTable) {
  // Seq is re-invoked per outer row with that row's id.
  Table t = MustQuery("SELECT t.id, F.v FROM t, TABLE (Seq(t.id)) AS F");
  // 1 + 2 + 3 + 4 rows.
  EXPECT_EQ(t.num_rows(), 10u);
  EXPECT_EQ(seq_->invocations, 4);
}

TEST_F(ExecutorTest, LateralDependencyReordersExecution) {
  // G depends on F even though written first in text? Here F first, then G
  // references F.v: classic paper pattern.
  Table t = MustQuery(
      "SELECT G.v FROM TABLE (Seq(2)) AS F, TABLE (Seq(F.v)) AS G");
  // F yields 1,2; G(1) yields 1 row, G(2) yields 2 -> 3 rows.
  EXPECT_EQ(t.num_rows(), 3u);
}

TEST_F(ExecutorTest, LateralDependencyWrittenOutOfOrder) {
  // The dependent function appears FIRST in the FROM clause; the planner
  // must reorder by parameter availability (paper: "execution order defined
  // by input parameters").
  Table t = MustQuery(
      "SELECT G.v FROM TABLE (Seq(F.v)) AS G, TABLE (Seq(2)) AS F");
  EXPECT_EQ(t.num_rows(), 3u);
}

TEST_F(ExecutorTest, CyclicLateralDependencyRejected) {
  auto r = db_.Execute(
      "SELECT 1 FROM TABLE (Seq(B.v)) AS A, TABLE (Seq(A.v)) AS B");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("cyclic"), std::string::npos);
}

TEST_F(ExecutorTest, EmptyFunctionResultYieldsEmptyJoin) {
  Table t = MustQuery(
      "SELECT F.v, G.v FROM TABLE (Seq(0)) AS F, TABLE (Seq(3)) AS G");
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST_F(ExecutorTest, DuplicateCorrelationNamesRejected) {
  EXPECT_FALSE(db_.Execute("SELECT 1 FROM t AS x, t AS x").ok());
}

TEST_F(ExecutorTest, UnknownTableOrFunction) {
  EXPECT_FALSE(db_.Execute("SELECT 1 FROM nope").ok());
  EXPECT_FALSE(db_.Execute("SELECT 1 FROM TABLE (nope(1)) AS N").ok());
}

TEST_F(ExecutorTest, WrongArgCountForTableFunction) {
  auto r = db_.Execute("SELECT 1 FROM TABLE (Seq(1, 2)) AS F");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("expects"), std::string::npos);
}

TEST_F(ExecutorTest, OrderByAscDescAndNullsFirst) {
  Table t = MustQuery("SELECT id, name FROM t ORDER BY name, id DESC");
  // NULL name sorts first.
  EXPECT_TRUE(t.rows()[0][1].is_null());
  EXPECT_EQ(t.rows()[1][0].AsInt(), 3);  // 'a' with id DESC -> 3 before 1
  EXPECT_EQ(t.rows()[2][0].AsInt(), 1);
  EXPECT_EQ(t.rows()[3][1].AsVarchar(), "b");
}

TEST_F(ExecutorTest, OrderByOutputAlias) {
  Table t = MustQuery("SELECT id * 10 AS x FROM t ORDER BY x DESC LIMIT 2");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.rows()[0][0].AsInt(), 40);
}

TEST_F(ExecutorTest, LimitTruncates) {
  EXPECT_EQ(MustQuery("SELECT id FROM t LIMIT 2").num_rows(), 2u);
  EXPECT_EQ(MustQuery("SELECT id FROM t LIMIT 0").num_rows(), 0u);
  EXPECT_EQ(MustQuery("SELECT id FROM t LIMIT 99").num_rows(), 4u);
}

TEST_F(ExecutorTest, GroupByWithAggregates) {
  Table t = MustQuery(
      "SELECT name, COUNT(*) AS n, SUM(id) AS s FROM t "
      "GROUP BY name ORDER BY n DESC, name");
  ASSERT_EQ(t.num_rows(), 3u);
  // Group 'a': two rows, ids 1+3.
  EXPECT_EQ(t.rows()[0][0].AsVarchar(), "a");
  EXPECT_EQ(t.rows()[0][1].AsBigInt(), 2);
  EXPECT_EQ(t.rows()[0][2].AsBigInt(), 4);
}

TEST_F(ExecutorTest, AggregatesWithoutGroupBy) {
  Table t = MustQuery("SELECT COUNT(*), MIN(id), MAX(id), AVG(id) FROM t");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.rows()[0][0].AsBigInt(), 4);
  EXPECT_EQ(t.rows()[0][1].AsInt(), 1);
  EXPECT_EQ(t.rows()[0][2].AsInt(), 4);
  EXPECT_DOUBLE_EQ(t.rows()[0][3].AsDouble(), 2.5);
}

TEST_F(ExecutorTest, AggregateOverEmptyInputYieldsOneRow) {
  Table t = MustQuery("SELECT COUNT(*), SUM(id) FROM t WHERE id > 100");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.rows()[0][0].AsBigInt(), 0);
  EXPECT_TRUE(t.rows()[0][1].is_null());
}

TEST_F(ExecutorTest, CountSkipsNulls) {
  Table t = MustQuery("SELECT COUNT(name) FROM t");
  EXPECT_EQ(t.rows()[0][0].AsBigInt(), 3);
}

TEST_F(ExecutorTest, HavingFiltersGroups) {
  Table t = MustQuery(
      "SELECT name, COUNT(*) AS n FROM t WHERE name IS NOT NULL "
      "GROUP BY name HAVING COUNT(*) > 1");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.rows()[0][0].AsVarchar(), "a");
}

TEST_F(ExecutorTest, StarWithAggregationRejected) {
  EXPECT_FALSE(db_.Execute("SELECT * FROM t GROUP BY name").ok());
}

TEST_F(ExecutorTest, ExpressionInGroupBy) {
  Table t = MustQuery(
      "SELECT id % 2 AS parity, COUNT(*) AS n FROM t GROUP BY id % 2 "
      "ORDER BY parity");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.rows()[0][1].AsBigInt(), 2);
}

TEST_F(ExecutorTest, DdlAndDml) {
  EXPECT_TRUE(db_.Execute("CREATE TABLE fresh (x INT)").ok());
  EXPECT_FALSE(db_.Execute("CREATE TABLE fresh (x INT)").ok());
  EXPECT_TRUE(db_.Execute("DROP TABLE fresh").ok());
  EXPECT_FALSE(db_.Execute("DROP TABLE fresh").ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO fresh VALUES (1)").ok());
}

TEST_F(ExecutorTest, InsertCoercesAndChecksArity) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE c (x BIGINT)").ok());
  EXPECT_TRUE(db_.Execute("INSERT INTO c VALUES (1)").ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO c VALUES (1, 2)").ok());
  Table t = MustQuery("SELECT x FROM c");
  EXPECT_EQ(t.rows()[0][0].type(), DataType::kBigInt);
}

TEST_F(ExecutorTest, OutputColumnNaming) {
  Table t = MustQuery("SELECT id, id + 1, UPPER(name), id AS renamed FROM t "
                      "LIMIT 1");
  EXPECT_EQ(t.schema().column(0).name, "id");
  EXPECT_EQ(t.schema().column(1).name, "col2");
  EXPECT_EQ(t.schema().column(2).name, "UPPER");
  EXPECT_EQ(t.schema().column(3).name, "renamed");
}

TEST_F(ExecutorTest, LateralOrderExposedForPlannerTests) {
  auto stmt = sql::ParseSelect(
      "SELECT 1 FROM TABLE (Seq(B.v)) AS A, TABLE (Seq(1)) AS B");
  ASSERT_TRUE(stmt.ok());
  Schema seq_schema;
  seq_schema.AddColumn("v", DataType::kInt);
  std::vector<const Schema*> schemas = {&seq_schema, &seq_schema};
  auto order = SelectExecutor::LateralOrder(*stmt, schemas);
  ASSERT_TRUE(order.ok());
  EXPECT_EQ((*order)[0], 1u);
  EXPECT_EQ((*order)[1], 0u);
}

}  // namespace
}  // namespace fedflow::fdbs
