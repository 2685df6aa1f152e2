#include "sql/parser.h"

#include <gtest/gtest.h>

#include <string>

namespace fedflow::sql {
namespace {

SelectStmt MustSelect(const std::string& sql) {
  auto stmt = ParseSelect(sql);
  EXPECT_TRUE(stmt.ok()) << sql << " -> " << stmt.status();
  return stmt.ok() ? std::move(*stmt) : SelectStmt{};
}

ExprPtr MustExpr(const std::string& text) {
  auto e = ParseExpression(text);
  EXPECT_TRUE(e.ok()) << text << " -> " << e.status();
  return e.ok() ? *e : nullptr;
}

TEST(ParserTest, MinimalSelect) {
  SelectStmt s = MustSelect("SELECT 1");
  ASSERT_EQ(s.items.size(), 1u);
  EXPECT_TRUE(s.from.empty());
  EXPECT_EQ(s.where, nullptr);
}

TEST(ParserTest, SelectListWithAliases) {
  SelectStmt s = MustSelect("SELECT a AS x, b y, c FROM t");
  ASSERT_EQ(s.items.size(), 3u);
  EXPECT_EQ(s.items[0].alias, "x");
  EXPECT_EQ(s.items[1].alias, "y");
  EXPECT_EQ(s.items[2].alias, "");
}

TEST(ParserTest, StarAndQualifiedStar) {
  SelectStmt s = MustSelect("SELECT *, t.* FROM t");
  ASSERT_EQ(s.items.size(), 2u);
  EXPECT_TRUE(s.items[0].is_star);
  EXPECT_EQ(s.items[0].star_qualifier, "");
  EXPECT_TRUE(s.items[1].is_star);
  EXPECT_EQ(s.items[1].star_qualifier, "t");
}

TEST(ParserTest, TableFunctionReference) {
  SelectStmt s = MustSelect(
      "SELECT GQ.Qual FROM TABLE (GetQuality(SupplierNo)) AS GQ");
  ASSERT_EQ(s.from.size(), 1u);
  EXPECT_EQ(s.from[0].kind, TableRefKind::kTableFunction);
  EXPECT_EQ(s.from[0].name, "GetQuality");
  EXPECT_EQ(s.from[0].alias, "GQ");
  ASSERT_EQ(s.from[0].args.size(), 1u);
}

TEST(ParserTest, TableFunctionRequiresCorrelationName) {
  // DB2 semantics the paper relies on: correlation name is mandatory.
  EXPECT_FALSE(ParseSelect("SELECT 1 FROM TABLE (f(1))").ok());
}

TEST(ParserTest, TableFunctionWithNoArgs) {
  SelectStmt s = MustSelect("SELECT 1 FROM TABLE (f()) AS F");
  EXPECT_TRUE(s.from[0].args.empty());
}

TEST(ParserTest, PaperBuySuppCompStatementParses) {
  // Verbatim from the paper (§2).
  SelectStmt s = MustSelect(
      "SELECT DP.Answer "
      "FROM TABLE (GetQuality(SupplierNo)) AS GQ, "
      "TABLE (GetReliability(SupplierNo)) AS GR, "
      "TABLE (GetGrade(GQ.Qual, GR.Relia)) AS GG, "
      "TABLE (GetCompNo(CompName)) AS GCN, "
      "TABLE (DecidePurchase(GG.Grade, GCN.No)) AS DP");
  EXPECT_EQ(s.from.size(), 5u);
  EXPECT_EQ(s.from[4].alias, "DP");
}

TEST(ParserTest, WhereGroupHavingOrderLimit) {
  SelectStmt s = MustSelect(
      "SELECT a, COUNT(*) FROM t WHERE b > 1 GROUP BY a "
      "HAVING COUNT(*) >= 2 ORDER BY a DESC, b LIMIT 10");
  EXPECT_NE(s.where, nullptr);
  EXPECT_EQ(s.group_by.size(), 1u);
  EXPECT_NE(s.having, nullptr);
  ASSERT_EQ(s.order_by.size(), 2u);
  EXPECT_FALSE(s.order_by[0].ascending);
  EXPECT_TRUE(s.order_by[1].ascending);
  EXPECT_EQ(*s.limit, 10);
}

TEST(ParserTest, CreateTable) {
  auto stmt = Parse("CREATE TABLE t (id INT, name VARCHAR(20), w DOUBLE)");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ASSERT_EQ(stmt->kind, StatementKind::kCreateTable);
  EXPECT_EQ(stmt->create_table->name, "t");
  ASSERT_EQ(stmt->create_table->schema.num_columns(), 3u);
  EXPECT_EQ(stmt->create_table->schema.column(1).type, DataType::kVarchar);
}

TEST(ParserTest, InsertMultipleRows) {
  auto stmt = Parse("INSERT INTO t VALUES (1, 'a'), (2, 'b')");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ASSERT_EQ(stmt->kind, StatementKind::kInsert);
  EXPECT_EQ(stmt->insert->rows.size(), 2u);
  EXPECT_EQ(stmt->insert->rows[0].size(), 2u);
}

TEST(ParserTest, CreateFunctionMatchesPaperSyntax) {
  // Verbatim I-UDTF definition from the paper (§2).
  auto stmt = Parse(
      "CREATE FUNCTION BuySuppComp (SupplierNo INT, CompName VARCHAR) "
      "RETURNS TABLE (Decision VARCHAR) LANGUAGE SQL RETURN "
      "SELECT DP.Answer "
      "FROM TABLE (GetQuality(BuySuppComp.SupplierNo)) AS GQ, "
      "TABLE (GetReliability(BuySuppComp.SupplierNo)) AS GR, "
      "TABLE (GetGrade(GQ.Qual, GR.Relia)) AS GG, "
      "TABLE (GetCompNo(BuySuppComp.CompName)) AS GCN, "
      "TABLE (DecidePurchase(GG.Grade, GCN.No)) AS DP");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ASSERT_EQ(stmt->kind, StatementKind::kCreateFunction);
  const CreateFunctionStmt& cf = *stmt->create_function;
  EXPECT_EQ(cf.name, "BuySuppComp");
  ASSERT_EQ(cf.params.size(), 2u);
  EXPECT_EQ(cf.params[1].type, DataType::kVarchar);
  EXPECT_EQ(cf.returns.column(0).name, "Decision");
  EXPECT_EQ(cf.body->from.size(), 5u);
}

TEST(ParserTest, DropStatements) {
  auto t = Parse("DROP TABLE x");
  ASSERT_TRUE(t.ok());
  EXPECT_FALSE(t->drop->is_function);
  auto f = Parse("DROP FUNCTION y;");
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(f->drop->is_function);
}

TEST(ParserTest, TrailingTokensRejected) {
  EXPECT_FALSE(Parse("SELECT 1 SELECT 2").ok());
  EXPECT_FALSE(ParseExpression("1 + 2 garbage").ok());
}

TEST(ParserTest, ErrorsCarryOffsets) {
  auto stmt = Parse("CREATE NONSENSE x");
  ASSERT_FALSE(stmt.ok());
  EXPECT_NE(stmt.status().message().find("offset"), std::string::npos);
}

// --- expression grammar ----------------------------------------------------

TEST(ExprTest, PrecedenceMulOverAdd) {
  ExprPtr e = MustExpr("1 + 2 * 3");
  ASSERT_EQ(e->kind(), ExprKind::kBinary);
  const auto& add = static_cast<const BinaryExpr&>(*e);
  EXPECT_EQ(add.op(), BinaryOp::kAdd);
  EXPECT_EQ(static_cast<const BinaryExpr&>(*add.right()).op(), BinaryOp::kMul);
}

TEST(ExprTest, PrecedenceComparisonOverAnd) {
  ExprPtr e = MustExpr("a > 1 AND b < 2");
  const auto& land = static_cast<const BinaryExpr&>(*e);
  EXPECT_EQ(land.op(), BinaryOp::kAnd);
}

TEST(ExprTest, PrecedenceAndOverOr) {
  ExprPtr e = MustExpr("a OR b AND c");
  const auto& lor = static_cast<const BinaryExpr&>(*e);
  EXPECT_EQ(lor.op(), BinaryOp::kOr);
  EXPECT_EQ(static_cast<const BinaryExpr&>(*lor.right()).op(), BinaryOp::kAnd);
}

TEST(ExprTest, ParensOverridePrecedence) {
  ExprPtr e = MustExpr("(1 + 2) * 3");
  EXPECT_EQ(static_cast<const BinaryExpr&>(*e).op(), BinaryOp::kMul);
}

TEST(ExprTest, NotAndUnaryMinus) {
  ExprPtr e = MustExpr("NOT -x > 1");
  ASSERT_EQ(e->kind(), ExprKind::kUnary);
  EXPECT_EQ(static_cast<const UnaryExpr&>(*e).op(), UnaryOp::kNot);
}

TEST(ExprTest, IsNullPostfix) {
  ExprPtr e = MustExpr("a IS NULL");
  EXPECT_EQ(static_cast<const UnaryExpr&>(*e).op(), UnaryOp::kIsNull);
  ExprPtr n = MustExpr("a IS NOT NULL");
  EXPECT_EQ(static_cast<const UnaryExpr&>(*n).op(), UnaryOp::kIsNotNull);
}

TEST(ExprTest, LiteralsTyped) {
  EXPECT_EQ(static_cast<const LiteralExpr&>(*MustExpr("3")).value().type(),
            DataType::kInt);
  EXPECT_EQ(
      static_cast<const LiteralExpr&>(*MustExpr("3000000000")).value().type(),
      DataType::kBigInt);
  EXPECT_EQ(static_cast<const LiteralExpr&>(*MustExpr("3.5")).value().type(),
            DataType::kDouble);
  EXPECT_EQ(static_cast<const LiteralExpr&>(*MustExpr("'s'")).value().type(),
            DataType::kVarchar);
  EXPECT_TRUE(
      static_cast<const LiteralExpr&>(*MustExpr("NULL")).value().is_null());
  EXPECT_EQ(static_cast<const LiteralExpr&>(*MustExpr("TRUE")).value().AsBool(),
            true);
}

TEST(ExprTest, QualifiedColumnRef) {
  ExprPtr e = MustExpr("BuySuppComp.SupplierNo");
  const auto& ref = static_cast<const ColumnRefExpr&>(*e);
  EXPECT_EQ(ref.qualifier(), "BuySuppComp");
  EXPECT_EQ(ref.name(), "SupplierNo");
}

TEST(ExprTest, FunctionCallsNested) {
  ExprPtr e = MustExpr("BIGINT(ABS(x))");
  const auto& outer = static_cast<const FunctionCallExpr&>(*e);
  EXPECT_EQ(outer.name(), "BIGINT");
  ASSERT_EQ(outer.args().size(), 1u);
  EXPECT_EQ(outer.args()[0]->kind(), ExprKind::kFunctionCall);
}

TEST(ExprTest, CountStar) {
  ExprPtr e = MustExpr("COUNT(*)");
  const auto& call = static_cast<const FunctionCallExpr&>(*e);
  EXPECT_TRUE(call.star_arg());
  EXPECT_TRUE(call.args().empty());
}

TEST(ExprTest, ConcatOperator) {
  ExprPtr e = MustExpr("'a' || 'b'");
  EXPECT_EQ(static_cast<const BinaryExpr&>(*e).op(), BinaryOp::kConcat);
}

// --- nesting bound: deep input is an InvalidArgument, never a crash ---------

std::string Repeat(const std::string& s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += s;
  return out;
}
std::string Parens(int n) { return Repeat("(", n) + "1" + Repeat(")", n); }
std::string Nots(int n) { return Repeat("NOT ", n) + "TRUE"; }
std::string Minuses(int n) { return Repeat("- ", n) + "1"; }  // "--" comments
std::string Chain(int terms) { return "1" + Repeat("+1", terms - 1); }
std::string NestedIfs(int n) {
  return "CREATE PROCEDURE p () BEGIN " + Repeat("IF TRUE THEN ", n) +
         Repeat("END IF; ", n) + "END";
}

void ExpectTooDeep(const std::string& sql) {
  Result<Statement> r = Parse(sql);
  ASSERT_FALSE(r.ok()) << sql.substr(0, 60);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("nesting deeper than 256"),
            std::string::npos)
      << r.status();
}

TEST(NestingBoundTest, TenThousandNestedParentheses) {
  ExpectTooDeep("SELECT " + Parens(10000));
}

TEST(NestingBoundTest, HundredThousandChainedNots) {
  ExpectTooDeep("SELECT " + Nots(100000));
}

TEST(NestingBoundTest, HundredThousandUnaryMinuses) {
  ExpectTooDeep("SELECT " + Minuses(100000));
}

TEST(NestingBoundTest, MillionTermChainCountsOneLevelPerLink) {
  // No recursion while parsing, but the tree would be a million levels tall.
  ExpectTooDeep("SELECT " + Chain(1000000));
}

TEST(NestingBoundTest, HundredThousandNestedIfBlocks) {
  ExpectTooDeep(NestedIfs(100000));
}

TEST(NestingBoundTest, InListsAndNestedChainsCountTreeHeight) {
  // IN (...) desugars to a left-deep OR chain, one level per item.
  ExpectTooDeep("SELECT 1 IN (1" + Repeat(",1", 300) + ")");
  // A 200-term chain as the first term of another: no chain and no descent
  // is near the bound, but the tree would be 399 levels tall.
  ExpectTooDeep("SELECT ((" + Chain(200) + ")" + Repeat("+1", 199) + ")");
}

TEST(NestingBoundTest, InputExactlyAtTheBoundParses) {
  for (const std::string& sql : {"SELECT " + Parens(255), "SELECT " + Nots(255),
                                 "SELECT " + Minuses(255),
                                 "SELECT " + Chain(256), NestedIfs(256)}) {
    EXPECT_TRUE(Parse(sql).ok()) << sql.substr(0, 60);
  }
  EXPECT_EQ(MustExpr(Chain(256))->height(), 256);
  // One more level of any kind is over the bound.
  for (const std::string& sql : {"SELECT " + Parens(256), "SELECT " + Nots(256),
                                 "SELECT " + Minuses(256),
                                 "SELECT " + Chain(257), NestedIfs(257)}) {
    ExpectTooDeep(sql);
  }
}

// --- round trips: ToSql output reparses to the same SQL ----------------------

class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, SelectToSqlReparsesIdentically) {
  SelectStmt first = MustSelect(GetParam());
  std::string sql1 = first.ToSql();
  SelectStmt second = MustSelect(sql1);
  EXPECT_EQ(sql1, second.ToSql());
}

INSTANTIATE_TEST_SUITE_P(
    Statements, RoundTripTest,
    ::testing::Values(
        "SELECT 1",
        "SELECT a, b AS c FROM t",
        "SELECT * FROM t AS x, u",
        "SELECT t.* FROM t WHERE t.a > 1 AND t.b IS NOT NULL",
        "SELECT DP.Answer FROM TABLE (GetQuality(1)) AS GQ, "
        "TABLE (DecidePurchase(GQ.Qual, 5)) AS DP",
        "SELECT a, COUNT(*) AS n FROM t GROUP BY a HAVING COUNT(*) > 1 "
        "ORDER BY n DESC LIMIT 3",
        "SELECT BIGINT(GN.Number) FROM TABLE (GetNumber(1234, 5)) AS GN",
        "SELECT 'it''s' || x FROM t",
        "SELECT -1 + 2 * 3 FROM t WHERE NOT (a = b OR c <> d)"));

// A literal printed by LiteralExpr::ToSql parses back to the same value and
// type. Six fixed decimals would read these doubles back as 1003,
// 123456789.123457, 0 and (the one survivor) 3.0.
TEST(LiteralRoundTripTest, ToSqlParsesBackToTheSameValueAndType) {
  for (const Value& v :
       {Value::Double(1002.9999999), Value::Double(123456789.123456789),
        Value::Double(1e-300), Value::Double(3.0), Value::Double(0.1),
        Value::Double(1e300), Value::Int(7), Value::BigInt(int64_t{1} << 40),
        Value::Varchar("it's"), Value::Bool(true), Value::Null()}) {
    const std::string text = LiteralExpr(v).ToSql();
    SelectStmt s = MustSelect("SELECT " + text);
    ASSERT_EQ(s.items.size(), 1u) << text;
    ASSERT_EQ(s.items[0].expr->kind(), ExprKind::kLiteral) << text;
    const Value& back =
        static_cast<const LiteralExpr&>(*s.items[0].expr).value();
    EXPECT_EQ(back.type(), v.type()) << text;
    if (v.type() == DataType::kDouble) {
      EXPECT_EQ(back.AsDouble(), v.AsDouble()) << text;
    } else if (!v.is_null()) {
      EXPECT_TRUE(back.SqlEquals(v)) << text;
    }
  }
}

}  // namespace
}  // namespace fedflow::sql
