// Predicate pushdown: WHERE conjuncts are applied as soon as their FROM
// items have produced columns, pruning intermediate rows and — observably —
// lateral table-function invocations. Results must be identical with the
// optimization on and off.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "fdbs/database.h"

namespace fedflow::fdbs {
namespace {

/// Counts invocations; Rows(n) yields rows 1..n in column v.
class CountingRows : public TableFunction {
 public:
  CountingRows() {
    params_ = {Column{"n", DataType::kInt}};
    schema_.AddColumn("v", DataType::kInt);
  }
  const std::string& name() const override {
    static const std::string kName = "Rows";
    return kName;
  }
  const std::vector<Column>& params() const override { return params_; }
  const Schema& result_schema() const override { return schema_; }
  Result<RowSourcePtr> InvokeStream(const std::vector<Value>& args,
                                    ExecContext&, size_t batch_size) override {
    ++invocations;
    Table t(schema_);
    for (int i = 1; i <= args[0].AsInt(); ++i) {
      t.AppendRowUnchecked({Value::Int(i)});
    }
    return MakeTableSource(std::move(t), batch_size);
  }
  std::vector<Column> params_;
  Schema schema_;
  int invocations = 0;
};

class PushdownTest : public ::testing::Test {
 protected:
  PushdownTest() {
    EXPECT_TRUE(db_.Execute("CREATE TABLE t (id INT, tag VARCHAR)").ok());
    EXPECT_TRUE(db_.Execute("INSERT INTO t VALUES (1, 'keep'), (2, 'drop'), "
                            "(3, 'keep'), (4, 'drop')")
                    .ok());
    fn_ = std::make_shared<CountingRows>();
    EXPECT_TRUE(db_.catalog().RegisterTableFunction(fn_).ok());
  }

  Result<Table> Run(const std::string& sql, bool pushdown) {
    ExecContext ctx;
    ctx.db = &db_;
    ctx.predicate_pushdown = pushdown;
    return db_.Execute(sql, ctx);
  }

  Database db_;
  std::shared_ptr<CountingRows> fn_;
};

TEST_F(PushdownTest, PrunesLateralFunctionInvocations) {
  const std::string sql =
      "SELECT t.id, F.v FROM t, TABLE (Rows(t.id)) AS F "
      "WHERE t.tag = 'keep'";
  fn_->invocations = 0;
  auto with = Run(sql, true);
  ASSERT_TRUE(with.ok()) << with.status();
  // Only the two 'keep' rows reach the function.
  EXPECT_EQ(fn_->invocations, 2);

  fn_->invocations = 0;
  auto without = Run(sql, false);
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(fn_->invocations, 4);

  EXPECT_TRUE(Table::SameRowsAnyOrder(*with, *without));
}

TEST_F(PushdownTest, ConjunctsSplitAcrossItems) {
  const std::string sql =
      "SELECT t.id, F.v FROM t, TABLE (Rows(t.id)) AS F "
      "WHERE t.tag = 'keep' AND F.v > 1";
  auto with = Run(sql, true);
  auto without = Run(sql, false);
  ASSERT_TRUE(with.ok() && without.ok());
  EXPECT_TRUE(Table::SameRowsAnyOrder(*with, *without));
  // keep rows: id 1 (v in {1}), id 3 (v in {1,2,3}); F.v > 1 leaves 2 rows.
  EXPECT_EQ(with->num_rows(), 2u);
}

TEST_F(PushdownTest, ConstantFalsePredicateShortCircuitsEverything) {
  fn_->invocations = 0;
  auto r = Run("SELECT F.v FROM t, TABLE (Rows(t.id)) AS F WHERE 1 = 0",
               true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 0u);
  // The constant-false conjunct empties the row set before any item runs.
  EXPECT_EQ(fn_->invocations, 0);
}

TEST_F(PushdownTest, AmbiguousUnqualifiedRefStillRejected) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE t2 (id INT)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO t2 VALUES (1)").ok());
  // `id` exists in both t and t2: must error even though, mid-chain, only
  // one of them would be visible.
  auto r = Run("SELECT 1 FROM t, t2 WHERE id = 1", true);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("ambiguous"), std::string::npos);
}

TEST_F(PushdownTest, UnknownColumnStillRejected) {
  auto r = Run("SELECT 1 FROM t WHERE ghost = 1", true);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(PushdownTest, OrPredicatesAreNotSplit) {
  // OR must not be decomposed; both branches evaluated as one predicate.
  const std::string sql =
      "SELECT t.id FROM t WHERE t.tag = 'keep' OR t.id = 2";
  auto with = Run(sql, true);
  auto without = Run(sql, false);
  ASSERT_TRUE(with.ok() && without.ok());
  EXPECT_EQ(with->num_rows(), 3u);
  EXPECT_TRUE(Table::SameRowsAnyOrder(*with, *without));
}

TEST_F(PushdownTest, RandomizedEquivalenceSweep) {
  // Random predicates over a two-table join: pushdown on/off must agree.
  Rng rng(2024);
  ASSERT_TRUE(db_.Execute("CREATE TABLE u (k INT, w INT)").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db_.Execute("INSERT INTO u VALUES (" +
                            std::to_string(rng.Uniform(1, 4)) + ", " +
                            std::to_string(rng.Uniform(0, 50)) + ")")
                    .ok());
  }
  const char* predicates[] = {
      "t.id = u.k",
      "t.id = u.k AND u.w > 25",
      "t.tag = 'keep' AND t.id = u.k AND u.w % 2 = 0",
      "t.id < u.k OR u.w > 40",
      "u.w BETWEEN 10 AND 30 AND t.id IN (1, 3)",
  };
  for (const char* pred : predicates) {
    std::string sql =
        std::string("SELECT t.id, u.k, u.w FROM t, u WHERE ") + pred;
    auto with = Run(sql, true);
    auto without = Run(sql, false);
    ASSERT_TRUE(with.ok()) << sql << ": " << with.status();
    ASSERT_TRUE(without.ok()) << sql << ": " << without.status();
    EXPECT_TRUE(Table::SameRowsAnyOrder(*with, *without)) << sql;
  }
}

TEST_F(PushdownTest, GroupByAndOrderByUnaffected) {
  const std::string sql =
      "SELECT t.tag, COUNT(*) AS n FROM t, TABLE (Rows(t.id)) AS F "
      "WHERE F.v <= 2 GROUP BY t.tag ORDER BY t.tag";
  auto with = Run(sql, true);
  auto without = Run(sql, false);
  ASSERT_TRUE(with.ok() && without.ok());
  EXPECT_TRUE(*with == *without);
}

}  // namespace
}  // namespace fedflow::fdbs
