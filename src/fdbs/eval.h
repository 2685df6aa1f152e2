// Expression evaluation with SQL three-valued logic, plus static type
// inference for query output schemas.
#ifndef FEDFLOW_FDBS_EVAL_H_
#define FEDFLOW_FDBS_EVAL_H_

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/column_batch.h"
#include "common/result.h"
#include "common/schema.h"
#include "common/table.h"
#include "sql/ast.h"

namespace fedflow::fdbs {

class Catalog;

/// Named parameter values visible inside an SQL function body. DB2 style:
/// the body references them as `FunctionName.ParamName`; we additionally
/// allow unqualified references when unambiguous.
struct ParamScope {
  std::string function_name;
  std::vector<std::pair<std::string, Value>> params;

  /// Value of `name` if present (qualifier empty or == function_name).
  std::optional<Value> Lookup(const std::string& qualifier,
                              const std::string& name) const;
};

/// Resolves column references against the FROM-clause bindings of the current
/// (partially assembled) combined row, plus an optional parameter scope.
class RowScope {
 public:
  /// One FROM item's contribution to the combined row.
  struct Binding {
    std::string alias;     ///< correlation name (or table name)
    const Schema* schema;  ///< columns this binding contributes
    size_t offset;         ///< start position within the combined row
  };

  void AddBinding(std::string alias, const Schema* schema, size_t offset) {
    bindings_.push_back(Binding{std::move(alias), schema, offset});
  }
  const std::vector<Binding>& bindings() const { return bindings_; }

  /// Restricts resolution to bindings whose mask entry is true (used while
  /// assembling the lateral chain: an executing FROM item may only see items
  /// that already produced their columns). Null mask = all visible. The mask
  /// is borrowed and must outlive resolution.
  void set_visibility_mask(const std::vector<bool>* mask) { mask_ = mask; }

  void set_row(const Row* row) { row_ = row; }
  const Row* row() const { return row_; }

  void set_params(const ParamScope* params) { params_ = params; }
  const ParamScope* params() const { return params_; }

  /// Resolves qualifier.name (or bare name) to the current row's value.
  /// Falls back to the parameter scope. NotFound / InvalidArgument (ambiguous).
  Result<Value> ResolveColumn(const std::string& qualifier,
                              const std::string& name) const;

  /// Static type of qualifier.name, mirroring ResolveColumn's resolution.
  Result<DataType> ResolveColumnType(const std::string& qualifier,
                                     const std::string& name) const;

  /// A reference resolved once, ahead of per-row evaluation: either a fixed
  /// combined-row position or (for parameter references) a constant value.
  struct ResolvedRef {
    int pos = -1;  ///< combined-row position; -1 = parameter
    Value param;   ///< the parameter's value when pos < 0
  };

  /// Resolves qualifier.name to a position/constant under the current
  /// visibility mask, using the same rules as ResolveColumn. This is what
  /// lets the vectorized evaluator pay name resolution once per statement
  /// instead of once per row.
  Result<ResolvedRef> Resolve(const std::string& qualifier,
                              const std::string& name) const;

 private:
  /// Finds (binding index, column index) for a reference; second when
  /// resolved to a parameter instead.
  Result<std::pair<int, int>> Find(const std::string& qualifier,
                                   const std::string& name) const;

  std::vector<Binding> bindings_;
  const std::vector<bool>* mask_ = nullptr;
  const Row* row_ = nullptr;
  const ParamScope* params_ = nullptr;
};

/// Expression evaluator. NULL handling follows SQL: comparisons with NULL
/// yield NULL (unknown), AND/OR use three-valued truth tables, WHERE keeps
/// only rows evaluating to TRUE.
class Evaluator {
 public:
  explicit Evaluator(const Catalog* catalog) : catalog_(catalog) {}

  /// Resolver installed by the aggregation operator; receives aggregate
  /// calls (COUNT/SUM/AVG/MIN/MAX) and returns the per-group value.
  using AggResolver =
      std::function<Result<Value>(const sql::FunctionCallExpr&)>;
  void set_agg_resolver(AggResolver resolver) {
    agg_resolver_ = std::move(resolver);
  }

  /// True for the five built-in aggregate function names.
  static bool IsAggregateName(const std::string& name);

  /// True when `expr` contains an aggregate call anywhere.
  static bool ContainsAggregate(const sql::Expr& expr);

  /// Evaluates `expr` in `scope`.
  Result<Value> Eval(const sql::Expr& expr, const RowScope& scope) const;

  /// Static result type of `expr` (kNull when undeterminable).
  Result<DataType> InferType(const sql::Expr& expr,
                             const RowScope& scope) const;

 private:
  Result<Value> EvalBinary(const sql::BinaryExpr& expr,
                           const RowScope& scope) const;
  Result<Value> EvalCall(const sql::FunctionCallExpr& expr,
                         const RowScope& scope) const;

  const Catalog* catalog_;
  AggResolver agg_resolver_;
};

/// Promotes two numeric types for arithmetic (INT < BIGINT < DOUBLE).
DataType PromoteNumeric(DataType a, DataType b);

/// Applies a non-AND/OR binary operator to two already-evaluated operands.
/// This is the single scalar core shared by the row evaluator and the
/// vectorized evaluator's generic fallback, so both paths agree exactly on
/// SQL semantics (NULL propagation, numeric promotion, INT narrowing,
/// error messages).
Result<Value> ApplyBinaryOp(sql::BinaryOp op, const Value& lv,
                            const Value& rv);

/// Applies a unary operator to an already-evaluated operand (same sharing
/// rationale as ApplyBinaryOp).
Result<Value> ApplyUnaryOp(sql::UnaryOp op, const Value& v);

/// A WHERE conjunct compiled for vectorized evaluation over column batches.
///
/// Compile() resolves every column reference once (folding parameter
/// references to constants) and flattens the expression into a node tree;
/// FilterSelection() then evaluates the tree batch-at-a-time with tight
/// typed loops, narrowing a selection vector instead of walking a
/// std::variant tree per row. Expressions the vectorized engine does not
/// cover (CASE, scalar function calls, unresolvable references) return
/// nullopt and the caller falls back to the row-at-a-time filter.
///
/// Semantics match the row path bit for bit on results: three-valued
/// AND/OR with the same lazy right-side evaluation set, the root keeps only
/// non-NULL BOOLEAN TRUE values, and all per-row kernels mirror
/// Value/Evaluator semantics (per-row INT narrowing included). On failing
/// statements both paths fail, though they may surface the error of a
/// different row (the row path scans row-major, this one conjunct-major).
class VectorPredicate {
 public:
  /// Compiles `expr` against `scope` (current visibility mask applies).
  /// nullopt when the expression needs the row-at-a-time fallback.
  static std::optional<VectorPredicate> Compile(const sql::Expr& expr,
                                                const RowScope& scope);

  /// Narrows `sel` (row indices into `batch`, ascending) to the rows the
  /// predicate keeps. Errors mirror the row path's evaluation errors.
  Status FilterSelection(const ColumnBatch& batch,
                         std::vector<uint32_t>* sel) const;

  /// One flattened expression node. Public only for the evaluation kernels
  /// in eval.cc; not part of the stable API.
  enum class NodeKind {
    kConst,      // literal or folded parameter
    kCol,        // combined-row column at position `col`
    kAnd, kOr,   // three-valued logic with lazy right side
    kNot, kNeg, kIsNull, kIsNotNull,
    kCmp,        // =, <>, <, <=, >, >=
    kArith,      // +, -, *, /, %
    kGenericBin, // ||, LIKE
  };
  struct Node {
    NodeKind kind = NodeKind::kConst;
    sql::BinaryOp bop = sql::BinaryOp::kEq;   // kCmp/kArith/kGenericBin
    sql::UnaryOp uop = sql::UnaryOp::kNot;    // unary kinds
    Value cval;                               // kConst
    size_t col = 0;                           // kCol
    int left = -1;                            // first child
    int right = -1;                           // second child
  };

 private:
  VectorPredicate() = default;

  std::vector<Node> nodes_;
  int root_ = -1;
};

}  // namespace fedflow::fdbs

#endif  // FEDFLOW_FDBS_EVAL_H_
