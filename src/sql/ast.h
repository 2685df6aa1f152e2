// Abstract syntax tree for the fedflow SQL subset.
//
// The subset mirrors what the paper's prototype needed from DB2 UDB v7.1,
// plus common surface for post-processing function results:
//   SELECT [DISTINCT] ... FROM <tables and TABLE(func(args)) AS alias refs>
//     [WHERE ...] [GROUP BY ...] [HAVING ...] [ORDER BY ...] [LIMIT n]
//     with IN / BETWEEN / LIKE / CASE expressions
//   CREATE TABLE t (col TYPE, ...)
//   INSERT INTO t VALUES (...), (...) | INSERT INTO t SELECT ...
//   UPDATE t SET col = expr, ... [WHERE ...] / DELETE FROM t [WHERE ...]
//   CREATE FUNCTION f (p TYPE, ...) RETURNS TABLE (col TYPE, ...)
//     LANGUAGE SQL RETURN SELECT ...            -- SQL I-UDTFs
//   CREATE PROCEDURE p (...) BEGIN ... END      -- PSM, invoked via CALL
//   DROP TABLE t / DROP FUNCTION f / DROP PROCEDURE p
#ifndef FEDFLOW_SQL_AST_H_
#define FEDFLOW_SQL_AST_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/value.h"

namespace fedflow::sql {

class Expr;
/// Expressions are immutable after parsing; shared ownership lets the planner
/// reuse subtrees without cloning.
using ExprPtr = std::shared_ptr<Expr>;

/// Expression node kinds.
enum class ExprKind {
  kLiteral,
  kColumnRef,
  kFunctionCall,
  kBinary,
  kUnary,
  kCase,
};

/// Binary operators, in SQL semantics.
enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kConcat,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kLike,  ///< SQL LIKE with % and _ wildcards
};

/// Unary operators.
enum class UnaryOp {
  kNeg,
  kNot,
  kIsNull,
  kIsNotNull,
};

/// SQL text of a binary operator ("+", "AND", ...).
const char* BinaryOpName(BinaryOp op);

/// Base expression node.
class Expr {
 public:
  explicit Expr(ExprKind kind) : kind_(kind) {}
  virtual ~Expr() = default;
  ExprKind kind() const { return kind_; }

  /// Levels of the tree rooted here (a leaf is 1). Evaluation, rendering
  /// and destruction recurse this deep; the parser bounds it.
  int height() const { return height_; }

  /// Renders the expression back to SQL text.
  virtual std::string ToSql() const = 0;

 protected:
  /// Raises height() above `child` (null children are ignored).
  void RaiseAbove(const ExprPtr& child) {
    if (child != nullptr) height_ = std::max(height_, child->height_ + 1);
  }

 private:
  ExprKind kind_;
  int height_ = 1;
};

/// A constant.
class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(Value value)
      : Expr(ExprKind::kLiteral), value_(std::move(value)) {}
  const Value& value() const { return value_; }
  /// The value as SQL literal text, the one printer of a Value as SQL:
  /// strings quoted with '' escapes, a DOUBLE in the shortest form that
  /// reads back as the same double and still lexes as a DOUBLE.
  std::string ToSql() const override;

 private:
  Value value_;
};

/// A possibly-qualified name reference: `alias.col`, bare `col`, or — inside
/// an SQL function body — `FunctionName.ParamName` (DB2 style).
class ColumnRefExpr : public Expr {
 public:
  ColumnRefExpr(std::string qualifier, std::string name)
      : Expr(ExprKind::kColumnRef),
        qualifier_(std::move(qualifier)),
        name_(std::move(name)) {}
  /// Empty when the reference is unqualified.
  const std::string& qualifier() const { return qualifier_; }
  const std::string& name() const { return name_; }
  std::string ToSql() const override;

 private:
  std::string qualifier_;
  std::string name_;
};

/// Scalar function call or aggregate. COUNT(*) is a call with star_arg set.
class FunctionCallExpr : public Expr {
 public:
  FunctionCallExpr(std::string name, std::vector<ExprPtr> args,
                   bool star_arg = false)
      : Expr(ExprKind::kFunctionCall),
        name_(std::move(name)),
        args_(std::move(args)),
        star_arg_(star_arg) {
    for (const ExprPtr& arg : args_) RaiseAbove(arg);
  }
  const std::string& name() const { return name_; }
  const std::vector<ExprPtr>& args() const { return args_; }
  bool star_arg() const { return star_arg_; }
  std::string ToSql() const override;

 private:
  std::string name_;
  std::vector<ExprPtr> args_;
  bool star_arg_;
};

/// Binary operation.
class BinaryExpr : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr left, ExprPtr right)
      : Expr(ExprKind::kBinary),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)) {
    RaiseAbove(left_);
    RaiseAbove(right_);
  }
  BinaryOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }
  std::string ToSql() const override;

 private:
  BinaryOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// Unary operation (negation, NOT, IS [NOT] NULL).
class UnaryExpr : public Expr {
 public:
  UnaryExpr(UnaryOp op, ExprPtr operand)
      : Expr(ExprKind::kUnary), op_(op), operand_(std::move(operand)) {
    RaiseAbove(operand_);
  }
  UnaryOp op() const { return op_; }
  const ExprPtr& operand() const { return operand_; }
  std::string ToSql() const override;

 private:
  UnaryOp op_;
  ExprPtr operand_;
};

/// Searched CASE expression: CASE WHEN c1 THEN v1 ... [ELSE v] END.
/// (The simple form CASE x WHEN v THEN ... is desugared by the parser.)
class CaseExpr : public Expr {
 public:
  struct Branch {
    ExprPtr condition;
    ExprPtr value;
  };
  CaseExpr(std::vector<Branch> branches, ExprPtr else_value)
      : Expr(ExprKind::kCase),
        branches_(std::move(branches)),
        else_value_(std::move(else_value)) {
    for (const Branch& b : branches_) {
      RaiseAbove(b.condition);
      RaiseAbove(b.value);
    }
    RaiseAbove(else_value_);
  }
  const std::vector<Branch>& branches() const { return branches_; }
  /// Null when no ELSE was given (yields NULL).
  const ExprPtr& else_value() const { return else_value_; }
  std::string ToSql() const override;

 private:
  std::vector<Branch> branches_;
  ExprPtr else_value_;
};

/// One item of the SELECT list. Either `*` (optionally qualified) or an
/// expression with an optional output alias.
struct SelectItem {
  bool is_star = false;
  std::string star_qualifier;  ///< for `alias.*`; empty for bare `*`
  ExprPtr expr;                ///< null when is_star
  std::string alias;           ///< empty when none given
};

/// Kind of a FROM-clause item.
enum class TableRefKind {
  kBaseTable,      ///< `name [AS] alias`
  kTableFunction,  ///< `TABLE(fn(args)) AS alias` — DB2 UDTF reference
};

/// One FROM-clause item. Table-function arguments may reference columns of
/// FROM items to their left (DB2's lateral correlation), which is how the
/// paper's UDTF approach expresses precedence among local functions.
struct TableRef {
  TableRefKind kind = TableRefKind::kBaseTable;
  std::string name;            ///< table or function name
  std::string alias;           ///< correlation name (mandatory for functions)
  std::vector<ExprPtr> args;   ///< function arguments (kTableFunction only)
};

/// One ORDER BY key.
struct OrderItem {
  ExprPtr expr;
  bool ascending = true;
};

/// SELECT statement.
struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  ExprPtr where;                 ///< null when absent
  std::vector<ExprPtr> group_by;
  ExprPtr having;                ///< null when absent
  std::vector<OrderItem> order_by;
  std::optional<int64_t> limit;

  /// Renders the statement back to SQL text.
  std::string ToSql() const;
};

/// CREATE TABLE.
struct CreateTableStmt {
  std::string name;
  Schema schema;
};

/// INSERT INTO ... VALUES (...) | INSERT INTO ... SELECT ...
struct InsertStmt {
  std::string table;
  std::vector<std::vector<ExprPtr>> rows;  ///< VALUES form
  std::unique_ptr<SelectStmt> select;      ///< SELECT form (rows empty)
};

/// UPDATE table SET col = expr, ... [WHERE expr]. Base tables only — table
/// functions are read-only (the paper: "UDTFs only support read access").
struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;  ///< null when absent
};

/// DELETE FROM table [WHERE expr].
struct DeleteStmt {
  std::string table;
  ExprPtr where;  ///< null when absent
};

/// CREATE FUNCTION ... LANGUAGE SQL RETURN SELECT — an SQL-bodied table
/// function (the paper's I-UDTF). The body is restricted to one SELECT,
/// exactly the product limitation §2 discusses.
struct CreateFunctionStmt {
  std::string name;
  std::vector<Column> params;
  Schema returns;
  std::unique_ptr<SelectStmt> body;
};

/// One statement of a PSM-style stored-procedure body.
///
/// The dialect (SQL99 PSM flavored, trimmed to what the paper's discussion
/// needs): DECLARE var TYPE; SET var = expr; IF cond THEN ... [ELSE ...]
/// END IF; WHILE cond DO ... END WHILE; RETURN <select>; EMIT <select>
/// (appends the select's rows to the procedure's result set — the cursor
/// analog).
struct PsmStatement {
  enum class Kind { kDeclare, kSet, kIf, kWhile, kReturn, kEmit };
  Kind kind = Kind::kDeclare;

  std::string var;                    ///< kDeclare / kSet target
  DataType var_type = DataType::kNull;  ///< kDeclare
  ExprPtr expr;                       ///< kSet value, kIf / kWhile condition
  std::vector<PsmStatement> then_branch;  ///< kIf / kWhile body
  std::vector<PsmStatement> else_branch;  ///< kIf
  std::shared_ptr<const SelectStmt> select;  ///< kReturn / kEmit
};

/// CREATE PROCEDURE ... BEGIN ... END — a PSM stored procedure. Procedures
/// are invoked with CALL only; they cannot appear in a FROM clause (the
/// product restriction the paper §2 points out).
struct CreateProcedureStmt {
  std::string name;
  std::vector<Column> params;
  std::vector<PsmStatement> body;
};

/// CALL name(args) — invokes a stored procedure; yields its result set.
struct CallStmt {
  std::string name;
  std::vector<ExprPtr> args;
};

/// DROP TABLE / DROP FUNCTION / DROP PROCEDURE.
struct DropStmt {
  bool is_function = false;
  bool is_procedure = false;
  std::string name;
};

/// Statement discriminator.
enum class StatementKind {
  kSelect,
  kCreateTable,
  kInsert,
  kUpdate,
  kDelete,
  kCreateFunction,
  kCreateProcedure,
  kCall,
  kDrop,
};

/// A parsed statement; exactly the member matching `kind` is non-null.
struct Statement {
  StatementKind kind = StatementKind::kSelect;
  std::unique_ptr<SelectStmt> select;
  std::unique_ptr<CreateTableStmt> create_table;
  std::unique_ptr<InsertStmt> insert;
  std::unique_ptr<UpdateStmt> update;
  std::unique_ptr<DeleteStmt> del;
  std::unique_ptr<CreateFunctionStmt> create_function;
  std::unique_ptr<CreateProcedureStmt> create_procedure;
  std::unique_ptr<CallStmt> call;
  std::unique_ptr<DropStmt> drop;
};

}  // namespace fedflow::sql

#endif  // FEDFLOW_SQL_AST_H_
