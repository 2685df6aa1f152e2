#include "fdbs/eval.h"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "common/strings.h"
#include "fdbs/catalog.h"

namespace fedflow::fdbs {

using sql::BinaryExpr;
using sql::BinaryOp;
using sql::CaseExpr;
using sql::ColumnRefExpr;
using sql::Expr;
using sql::ExprKind;
using sql::FunctionCallExpr;
using sql::LiteralExpr;
using sql::UnaryExpr;
using sql::UnaryOp;

std::optional<Value> ParamScope::Lookup(const std::string& qualifier,
                                        const std::string& name) const {
  if (!qualifier.empty() && !EqualsIgnoreCase(qualifier, function_name)) {
    return std::nullopt;
  }
  for (const auto& [pname, value] : params) {
    if (EqualsIgnoreCase(pname, name)) return value;
  }
  return std::nullopt;
}

Result<std::pair<int, int>> RowScope::Find(const std::string& qualifier,
                                           const std::string& name) const {
  auto visible = [this](size_t b) {
    return mask_ == nullptr || (b < mask_->size() && (*mask_)[b]);
  };
  if (!qualifier.empty()) {
    // Qualified: the qualifier may be a FROM alias or the enclosing SQL
    // function's name (parameter reference).
    for (size_t b = 0; b < bindings_.size(); ++b) {
      if (!visible(b)) continue;
      if (EqualsIgnoreCase(bindings_[b].alias, qualifier)) {
        auto idx = bindings_[b].schema->IndexOf(name);
        if (!idx.has_value()) {
          return Status::NotFound("column " + name + " not found in " +
                                  qualifier);
        }
        return std::make_pair(static_cast<int>(b), static_cast<int>(*idx));
      }
    }
    if (params_ != nullptr && params_->Lookup(qualifier, name).has_value()) {
      return std::make_pair(-1, 0);  // parameter
    }
    return Status::NotFound("unknown correlation name: " + qualifier);
  }
  // Unqualified: must be unique across visible bindings.
  std::optional<std::pair<int, int>> found;
  for (size_t b = 0; b < bindings_.size(); ++b) {
    if (!visible(b)) continue;
    auto idx = bindings_[b].schema->IndexOf(name);
    if (idx.has_value()) {
      if (found.has_value()) {
        return Status::InvalidArgument("ambiguous column reference: " + name);
      }
      found = std::make_pair(static_cast<int>(b), static_cast<int>(*idx));
    }
  }
  if (found.has_value()) return *found;
  if (params_ != nullptr && params_->Lookup("", name).has_value()) {
    return std::make_pair(-1, 0);
  }
  return Status::NotFound("column not found: " + name);
}

Result<Value> RowScope::ResolveColumn(const std::string& qualifier,
                                      const std::string& name) const {
  FEDFLOW_ASSIGN_OR_RETURN(auto loc, Find(qualifier, name));
  if (loc.first < 0) {
    return *params_->Lookup(qualifier, name);
  }
  const Binding& b = bindings_[loc.first];
  if (row_ == nullptr) {
    return Status::Internal("RowScope has no current row");
  }
  size_t pos = b.offset + static_cast<size_t>(loc.second);
  if (pos >= row_->size()) {
    return Status::Internal("combined row too short for binding " + b.alias);
  }
  return (*row_)[pos];
}

Result<DataType> RowScope::ResolveColumnType(const std::string& qualifier,
                                             const std::string& name) const {
  FEDFLOW_ASSIGN_OR_RETURN(auto loc, Find(qualifier, name));
  if (loc.first < 0) {
    return params_->Lookup(qualifier, name)->type();
  }
  return bindings_[loc.first].schema->column(loc.second).type;
}

Result<RowScope::ResolvedRef> RowScope::Resolve(const std::string& qualifier,
                                                const std::string& name) const {
  FEDFLOW_ASSIGN_OR_RETURN(auto loc, Find(qualifier, name));
  ResolvedRef ref;
  if (loc.first < 0) {
    ref.param = *params_->Lookup(qualifier, name);
    return ref;
  }
  const Binding& b = bindings_[loc.first];
  ref.pos = static_cast<int>(b.offset) + loc.second;
  return ref;
}

bool Evaluator::IsAggregateName(const std::string& name) {
  return EqualsIgnoreCase(name, "COUNT") || EqualsIgnoreCase(name, "SUM") ||
         EqualsIgnoreCase(name, "AVG") || EqualsIgnoreCase(name, "MIN") ||
         EqualsIgnoreCase(name, "MAX");
}

bool Evaluator::ContainsAggregate(const Expr& expr) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
    case ExprKind::kColumnRef:
      return false;
    case ExprKind::kFunctionCall: {
      const auto& call = static_cast<const FunctionCallExpr&>(expr);
      if (IsAggregateName(call.name())) return true;
      for (const auto& arg : call.args()) {
        if (ContainsAggregate(*arg)) return true;
      }
      return false;
    }
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(expr);
      return ContainsAggregate(*bin.left()) || ContainsAggregate(*bin.right());
    }
    case ExprKind::kUnary:
      return ContainsAggregate(
          *static_cast<const UnaryExpr&>(expr).operand());
    case ExprKind::kCase: {
      const auto& case_expr = static_cast<const CaseExpr&>(expr);
      for (const CaseExpr::Branch& b : case_expr.branches()) {
        if (ContainsAggregate(*b.condition) || ContainsAggregate(*b.value)) {
          return true;
        }
      }
      return case_expr.else_value() != nullptr &&
             ContainsAggregate(*case_expr.else_value());
    }
  }
  return false;
}

namespace {

// Three-valued AND/OR. Values are TRUE / FALSE / NULL(unknown).
Result<Value> ToTruth(const Value& v) {
  if (v.is_null()) return Value::Null();
  if (v.type() == DataType::kBool) return v;
  // Numerics coerce: nonzero is true (lenient, like many engines).
  FEDFLOW_ASSIGN_OR_RETURN(int64_t n, v.ToInt64());
  return Value::Bool(n != 0);
}

}  // namespace

Result<Value> ApplyBinaryOp(BinaryOp op, const Value& lv, const Value& rv) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      if (lv.is_null() || rv.is_null()) return Value::Null();
      FEDFLOW_ASSIGN_OR_RETURN(int cmp, lv.Compare(rv));
      if (op == BinaryOp::kEq) return Value::Bool(cmp == 0);
      if (op == BinaryOp::kNe) return Value::Bool(cmp != 0);
      if (op == BinaryOp::kLt) return Value::Bool(cmp < 0);
      if (op == BinaryOp::kLe) return Value::Bool(cmp <= 0);
      if (op == BinaryOp::kGt) return Value::Bool(cmp > 0);
      return Value::Bool(cmp >= 0);
    }
    case BinaryOp::kConcat: {
      if (lv.is_null() || rv.is_null()) return Value::Null();
      return Value::Varchar(lv.ToString() + rv.ToString());
    }
    case BinaryOp::kLike: {
      if (lv.is_null() || rv.is_null()) return Value::Null();
      if (lv.type() != DataType::kVarchar ||
          rv.type() != DataType::kVarchar) {
        return Status::TypeError("LIKE requires VARCHAR operands");
      }
      return Value::Bool(SqlLike(lv.AsVarchar(), rv.AsVarchar()));
    }
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod: {
      if (lv.is_null() || rv.is_null()) return Value::Null();
      DataType target = PromoteNumeric(lv.type(), rv.type());
      if (target == DataType::kDouble) {
        FEDFLOW_ASSIGN_OR_RETURN(double a, lv.ToDouble());
        FEDFLOW_ASSIGN_OR_RETURN(double b, rv.ToDouble());
        if (op == BinaryOp::kAdd) return Value::Double(a + b);
        if (op == BinaryOp::kSub) return Value::Double(a - b);
        if (op == BinaryOp::kMul) return Value::Double(a * b);
        if (op == BinaryOp::kDiv) {
          if (b == 0) return Status::ExecutionError("division by zero");
          return Value::Double(a / b);
        }
        return Status::TypeError("MOD requires integer operands");
      }
      FEDFLOW_ASSIGN_OR_RETURN(int64_t a, lv.ToInt64());
      FEDFLOW_ASSIGN_OR_RETURN(int64_t b, rv.ToInt64());
      int64_t out;
      if (op == BinaryOp::kAdd) {
        out = a + b;
      } else if (op == BinaryOp::kSub) {
        out = a - b;
      } else if (op == BinaryOp::kMul) {
        out = a * b;
      } else if (op == BinaryOp::kDiv) {
        if (b == 0) return Status::ExecutionError("division by zero");
        out = a / b;
      } else {
        if (b == 0) return Status::ExecutionError("modulo by zero");
        out = a % b;
      }
      if (target == DataType::kInt && out >= INT32_MIN && out <= INT32_MAX) {
        return Value::Int(static_cast<int32_t>(out));
      }
      return Value::BigInt(out);
    }
    case BinaryOp::kAnd:
    case BinaryOp::kOr:
      // Need unevaluated operands for three-valued short-circuiting; handled
      // by the callers.
      return Status::Internal("unhandled binary op");
  }
  return Status::Internal("unhandled binary op");
}

Result<Value> ApplyUnaryOp(UnaryOp op, const Value& v) {
  switch (op) {
    case UnaryOp::kNeg: {
      if (v.is_null()) return Value::Null();
      switch (v.type()) {
        case DataType::kInt:
          return Value::Int(-v.AsInt());
        case DataType::kBigInt:
          return Value::BigInt(-v.AsBigInt());
        case DataType::kDouble:
          return Value::Double(-v.AsDouble());
        case DataType::kNull:
        case DataType::kBool:
        case DataType::kVarchar:
          return Status::TypeError("cannot negate " +
                                   std::string(DataTypeName(v.type())));
      }
      return Status::Internal("bad value type");
    }
    case UnaryOp::kNot: {
      FEDFLOW_ASSIGN_OR_RETURN(Value t, ToTruth(v));
      if (t.is_null()) return Value::Null();
      return Value::Bool(!t.AsBool());
    }
    case UnaryOp::kIsNull:
      return Value::Bool(v.is_null());
    case UnaryOp::kIsNotNull:
      return Value::Bool(!v.is_null());
  }
  return Status::Internal("bad unary op");
}

Result<Value> Evaluator::Eval(const Expr& expr, const RowScope& scope) const {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr&>(expr).value();
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      return scope.ResolveColumn(ref.qualifier(), ref.name());
    }
    case ExprKind::kFunctionCall:
      return EvalCall(static_cast<const FunctionCallExpr&>(expr), scope);
    case ExprKind::kBinary:
      return EvalBinary(static_cast<const BinaryExpr&>(expr), scope);
    case ExprKind::kCase: {
      const auto& case_expr = static_cast<const CaseExpr&>(expr);
      for (const CaseExpr::Branch& b : case_expr.branches()) {
        FEDFLOW_ASSIGN_OR_RETURN(Value cond, Eval(*b.condition, scope));
        FEDFLOW_ASSIGN_OR_RETURN(Value truth, ToTruth(cond));
        if (!truth.is_null() && truth.AsBool()) {
          return Eval(*b.value, scope);
        }
      }
      if (case_expr.else_value() != nullptr) {
        return Eval(*case_expr.else_value(), scope);
      }
      return Value::Null();
    }
    case ExprKind::kUnary: {
      const auto& un = static_cast<const UnaryExpr&>(expr);
      FEDFLOW_ASSIGN_OR_RETURN(Value v, Eval(*un.operand(), scope));
      return ApplyUnaryOp(un.op(), v);
    }
  }
  return Status::Internal("bad expression kind");
}

Result<Value> Evaluator::EvalBinary(const BinaryExpr& expr,
                                    const RowScope& scope) const {
  const BinaryOp op = expr.op();
  // AND/OR need three-valued logic and benefit from short-circuiting.
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    FEDFLOW_ASSIGN_OR_RETURN(Value lv, Eval(*expr.left(), scope));
    FEDFLOW_ASSIGN_OR_RETURN(Value lt, ToTruth(lv));
    if (op == BinaryOp::kAnd && !lt.is_null() && !lt.AsBool()) {
      return Value::Bool(false);
    }
    if (op == BinaryOp::kOr && !lt.is_null() && lt.AsBool()) {
      return Value::Bool(true);
    }
    FEDFLOW_ASSIGN_OR_RETURN(Value rv, Eval(*expr.right(), scope));
    FEDFLOW_ASSIGN_OR_RETURN(Value rt, ToTruth(rv));
    if (op == BinaryOp::kAnd) {
      if (!rt.is_null() && !rt.AsBool()) return Value::Bool(false);
      if (lt.is_null() || rt.is_null()) return Value::Null();
      return Value::Bool(true);
    }
    if (!rt.is_null() && rt.AsBool()) return Value::Bool(true);
    if (lt.is_null() || rt.is_null()) return Value::Null();
    return Value::Bool(false);
  }

  FEDFLOW_ASSIGN_OR_RETURN(Value lv, Eval(*expr.left(), scope));
  FEDFLOW_ASSIGN_OR_RETURN(Value rv, Eval(*expr.right(), scope));
  return ApplyBinaryOp(op, lv, rv);
}

Result<Value> Evaluator::EvalCall(const FunctionCallExpr& expr,
                                  const RowScope& scope) const {
  if (IsAggregateName(expr.name())) {
    if (!agg_resolver_) {
      return Status::InvalidArgument(
          "aggregate function " + expr.name() +
          " is not allowed in this context");
    }
    return agg_resolver_(expr);
  }
  if (catalog_ == nullptr) {
    return Status::NotFound("no catalog to resolve function " + expr.name());
  }
  FEDFLOW_ASSIGN_OR_RETURN(const ScalarFunctionDef* def,
                           catalog_->GetScalarFunction(expr.name()));
  if (def->arity >= 0 &&
      static_cast<size_t>(def->arity) != expr.args().size()) {
    return Status::InvalidArgument(
        expr.name() + " expects " + std::to_string(def->arity) +
        " argument(s), got " + std::to_string(expr.args().size()));
  }
  std::vector<Value> args;
  args.reserve(expr.args().size());
  for (const auto& arg : expr.args()) {
    FEDFLOW_ASSIGN_OR_RETURN(Value v, Eval(*arg, scope));
    args.push_back(std::move(v));
  }
  return def->fn(args);
}

Result<DataType> Evaluator::InferType(const Expr& expr,
                                      const RowScope& scope) const {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr&>(expr).value().type();
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      return scope.ResolveColumnType(ref.qualifier(), ref.name());
    }
    case ExprKind::kFunctionCall: {
      const auto& call = static_cast<const FunctionCallExpr&>(expr);
      std::vector<DataType> arg_types;
      for (const auto& arg : call.args()) {
        FEDFLOW_ASSIGN_OR_RETURN(DataType t, InferType(*arg, scope));
        arg_types.push_back(t);
      }
      if (IsAggregateName(call.name())) {
        if (EqualsIgnoreCase(call.name(), "COUNT")) return DataType::kBigInt;
        if (EqualsIgnoreCase(call.name(), "AVG")) return DataType::kDouble;
        if (EqualsIgnoreCase(call.name(), "SUM")) {
          if (!arg_types.empty() && arg_types[0] == DataType::kDouble) {
            return DataType::kDouble;
          }
          return DataType::kBigInt;
        }
        return arg_types.empty() ? DataType::kNull : arg_types[0];
      }
      if (catalog_ == nullptr) return DataType::kNull;
      auto def = catalog_->GetScalarFunction(call.name());
      if (!def.ok()) return def.status();
      if ((*def)->return_type) return (*def)->return_type(arg_types);
      return DataType::kNull;
    }
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(expr);
      switch (bin.op()) {
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
        case BinaryOp::kLike:
          return DataType::kBool;
        case BinaryOp::kConcat:
          return DataType::kVarchar;
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod: {
          FEDFLOW_ASSIGN_OR_RETURN(DataType lt, InferType(*bin.left(), scope));
          FEDFLOW_ASSIGN_OR_RETURN(DataType rt,
                                   InferType(*bin.right(), scope));
          return PromoteNumeric(lt, rt);
        }
      }
      return DataType::kNull;
    }
    case ExprKind::kUnary: {
      const auto& un = static_cast<const UnaryExpr&>(expr);
      switch (un.op()) {
        case UnaryOp::kNeg:
          return InferType(*un.operand(), scope);
        case UnaryOp::kNot:
        case UnaryOp::kIsNull:
        case UnaryOp::kIsNotNull:
          return DataType::kBool;
      }
      return DataType::kNull;
    }
    case ExprKind::kCase: {
      const auto& case_expr = static_cast<const CaseExpr&>(expr);
      for (const CaseExpr::Branch& b : case_expr.branches()) {
        FEDFLOW_ASSIGN_OR_RETURN(DataType t, InferType(*b.value, scope));
        if (t != DataType::kNull) return t;
      }
      if (case_expr.else_value() != nullptr) {
        return InferType(*case_expr.else_value(), scope);
      }
      return DataType::kNull;
    }
  }
  return DataType::kNull;
}

DataType PromoteNumeric(DataType a, DataType b) {
  if (a == DataType::kDouble || b == DataType::kDouble) {
    return DataType::kDouble;
  }
  if (a == DataType::kBigInt || b == DataType::kBigInt) {
    return DataType::kBigInt;
  }
  return DataType::kInt;
}

// ---------------------------------------------------------------------------
// Vectorized predicate evaluation. Same semantics as the row path (the
// generic fallbacks literally call ApplyBinaryOp/ApplyUnaryOp), minus the
// per-row name resolution and variant tree walk.
// ---------------------------------------------------------------------------

namespace {

using VNode = VectorPredicate::Node;
using VKind = VectorPredicate::NodeKind;

/// One vectorized intermediate, aligned with the current selection: a
/// broadcast constant, a typed vector + null map, or (mixed/degenerate
/// cases) a generic Value vector. Strings are referenced, not copied:
/// `strs` points into the batch's column storage.
struct Vec {
  bool is_const = false;
  Value cval;                       // when is_const (Null by default)
  DataType type = DataType::kNull;  // kNull + !is_const = generic `vals`
  std::vector<uint8_t> nulls;       // typed vectors: 1 = NULL
  std::vector<uint8_t> bools;
  std::vector<int64_t> i64s;        // kInt (int32-ranged) and kBigInt
  std::vector<double> f64s;
  std::vector<const std::string*> strs;
  std::vector<Value> vals;          // generic

  bool generic() const { return !is_const && type == DataType::kNull; }

  bool NullAt(size_t k) const {
    if (is_const) return cval.is_null();
    if (generic()) return vals[k].is_null();
    return nulls[k] != 0;
  }

  /// Reconstructs the row-form value at selection position `k`.
  Value At(size_t k) const {
    if (is_const) return cval;
    if (generic()) return vals[k];
    if (nulls[k] != 0) return Value::Null();
    switch (type) {
      case DataType::kNull:
        break;
      case DataType::kBool:
        return Value::Bool(bools[k] != 0);
      case DataType::kInt:
        return Value::Int(static_cast<int32_t>(i64s[k]));
      case DataType::kBigInt:
        return Value::BigInt(i64s[k]);
      case DataType::kDouble:
        return Value::Double(f64s[k]);
      case DataType::kVarchar:
        return Value::Varchar(*strs[k]);
    }
    return Value::Null();
  }
};

Vec ConstVec(Value v) {
  Vec out;
  out.is_const = true;
  out.cval = std::move(v);
  return out;
}

Vec BoolVec(std::vector<uint8_t> bools, std::vector<uint8_t> nulls) {
  Vec out;
  out.type = DataType::kBool;
  out.bools = std::move(bools);
  out.nulls = std::move(nulls);
  return out;
}

bool IsNumeric(DataType t) {
  return t == DataType::kBool || t == DataType::kInt ||
         t == DataType::kBigInt || t == DataType::kDouble;
}

/// Static value type of a non-generic Vec (const's value type, else the
/// vector type — every non-null element carries exactly that type).
DataType StaticType(const Vec& v) {
  return v.is_const ? v.cval.type() : v.type;
}

/// Numeric reader over a non-generic Vec, mirroring Value::ToInt64 /
/// Value::ToDouble for the numeric types.
struct NumIn {
  bool is_const = false;
  bool cnull = false;
  int64_t ci = 0;
  double cf = 0;
  DataType t = DataType::kNull;
  const uint8_t* nulls = nullptr;
  const uint8_t* bools = nullptr;
  const int64_t* i64s = nullptr;
  const double* f64s = nullptr;

  static NumIn Of(const Vec& v) {
    NumIn a;
    a.t = StaticType(v);
    a.is_const = v.is_const;
    if (v.is_const) {
      a.cnull = v.cval.is_null();
      if (!a.cnull) {
        switch (a.t) {
          case DataType::kBool:
            a.ci = v.cval.AsBool() ? 1 : 0;
            a.cf = static_cast<double>(a.ci);
            break;
          case DataType::kInt:
            a.ci = v.cval.AsInt();
            a.cf = static_cast<double>(a.ci);
            break;
          case DataType::kBigInt:
            a.ci = v.cval.AsBigInt();
            a.cf = static_cast<double>(a.ci);
            break;
          case DataType::kDouble:
            a.cf = v.cval.AsDouble();
            a.ci = static_cast<int64_t>(a.cf);
            break;
          case DataType::kNull:
          case DataType::kVarchar:
            break;
        }
      }
    } else {
      a.nulls = v.nulls.data();
      a.bools = v.bools.data();
      a.i64s = v.i64s.data();
      a.f64s = v.f64s.data();
    }
    return a;
  }

  bool NullAt(size_t k) const { return is_const ? cnull : nulls[k] != 0; }
  int64_t I64(size_t k) const {
    if (is_const) return ci;
    if (t == DataType::kBool) return bools[k];
    if (t == DataType::kDouble) return static_cast<int64_t>(f64s[k]);
    return i64s[k];
  }
  double F64(size_t k) const {
    if (is_const) return cf;
    if (t == DataType::kBool) return bools[k] != 0 ? 1.0 : 0.0;
    if (t == DataType::kDouble) return f64s[k];
    return static_cast<double>(i64s[k]);
  }
};

const std::string& StrAt(const Vec& v, size_t k) {
  return v.is_const ? v.cval.AsVarchar() : *v.strs[k];
}

bool CmpHolds(BinaryOp op, int cmp) {
  if (op == BinaryOp::kEq) return cmp == 0;
  if (op == BinaryOp::kNe) return cmp != 0;
  if (op == BinaryOp::kLt) return cmp < 0;
  if (op == BinaryOp::kLe) return cmp <= 0;
  if (op == BinaryOp::kGt) return cmp > 0;
  return cmp >= 0;
}

/// Per-row fallback through the shared scalar core: exact semantics and
/// error messages for every combination the typed kernels do not cover.
Result<Vec> GenericBinFallback(BinaryOp op, const Vec& l, const Vec& r,
                               size_t n) {
  if (l.is_const && r.is_const) {
    FEDFLOW_ASSIGN_OR_RETURN(Value v, ApplyBinaryOp(op, l.cval, r.cval));
    return ConstVec(std::move(v));
  }
  Vec out;
  out.vals.resize(n);
  for (size_t k = 0; k < n; ++k) {
    FEDFLOW_ASSIGN_OR_RETURN(out.vals[k], ApplyBinaryOp(op, l.At(k), r.At(k)));
  }
  return out;
}

Result<Vec> CmpVec(BinaryOp op, const Vec& l, const Vec& r, size_t n) {
  if ((l.is_const && l.cval.is_null()) || (r.is_const && r.cval.is_null())) {
    return ConstVec(Value::Null());
  }
  if (l.generic() || r.generic()) return GenericBinFallback(op, l, r, n);
  const DataType lt = StaticType(l);
  const DataType rt = StaticType(r);
  if (IsNumeric(lt) && IsNumeric(rt)) {
    const NumIn a = NumIn::Of(l);
    const NumIn b = NumIn::Of(r);
    std::vector<uint8_t> bools(n, 0);
    std::vector<uint8_t> nulls(n, 0);
    if (lt == DataType::kDouble || rt == DataType::kDouble) {
      for (size_t k = 0; k < n; ++k) {
        if (a.NullAt(k) || b.NullAt(k)) {
          nulls[k] = 1;
          continue;
        }
        const double x = a.F64(k);
        const double y = b.F64(k);
        bools[k] = CmpHolds(op, x < y ? -1 : (x > y ? 1 : 0)) ? 1 : 0;
      }
    } else {
      for (size_t k = 0; k < n; ++k) {
        if (a.NullAt(k) || b.NullAt(k)) {
          nulls[k] = 1;
          continue;
        }
        const int64_t x = a.I64(k);
        const int64_t y = b.I64(k);
        bools[k] = CmpHolds(op, x < y ? -1 : (x > y ? 1 : 0)) ? 1 : 0;
      }
    }
    return BoolVec(std::move(bools), std::move(nulls));
  }
  if (lt == DataType::kVarchar && rt == DataType::kVarchar) {
    std::vector<uint8_t> bools(n, 0);
    std::vector<uint8_t> nulls(n, 0);
    for (size_t k = 0; k < n; ++k) {
      if (l.NullAt(k) || r.NullAt(k)) {
        nulls[k] = 1;
        continue;
      }
      const int c = StrAt(l, k).compare(StrAt(r, k));
      bools[k] = CmpHolds(op, c < 0 ? -1 : (c > 0 ? 1 : 0)) ? 1 : 0;
    }
    return BoolVec(std::move(bools), std::move(nulls));
  }
  // Mismatched types: NULL pairs yield NULL, the first non-NULL pair yields
  // the row path's Compare error.
  return GenericBinFallback(op, l, r, n);
}

Result<Vec> ArithVec(BinaryOp op, const Vec& l, const Vec& r, size_t n) {
  if ((l.is_const && l.cval.is_null()) || (r.is_const && r.cval.is_null())) {
    return ConstVec(Value::Null());
  }
  if (l.generic() || r.generic()) return GenericBinFallback(op, l, r, n);
  const DataType lt = StaticType(l);
  const DataType rt = StaticType(r);
  if (!IsNumeric(lt) || !IsNumeric(rt)) {
    // VARCHAR in arithmetic: ToInt64's conversion error, per row.
    return GenericBinFallback(op, l, r, n);
  }
  const DataType target = PromoteNumeric(lt, rt);
  const NumIn a = NumIn::Of(l);
  const NumIn b = NumIn::Of(r);
  std::vector<uint8_t> nulls(n, 0);
  if (target == DataType::kDouble) {
    std::vector<double> f64s(n, 0);
    for (size_t k = 0; k < n; ++k) {
      if (a.NullAt(k) || b.NullAt(k)) {
        nulls[k] = 1;
        continue;
      }
      const double x = a.F64(k);
      const double y = b.F64(k);
      if (op == BinaryOp::kAdd) {
        f64s[k] = x + y;
      } else if (op == BinaryOp::kSub) {
        f64s[k] = x - y;
      } else if (op == BinaryOp::kMul) {
        f64s[k] = x * y;
      } else if (op == BinaryOp::kDiv) {
        if (y == 0) return Status::ExecutionError("division by zero");
        f64s[k] = x / y;
      } else {
        return Status::TypeError("MOD requires integer operands");
      }
    }
    Vec out;
    out.type = DataType::kDouble;
    out.f64s = std::move(f64s);
    out.nulls = std::move(nulls);
    return out;
  }
  const bool narrow = target == DataType::kInt;
  std::vector<int64_t> i64s(n, 0);
  std::vector<uint8_t> big(narrow ? n : 0, 0);
  size_t n_int = 0;
  size_t n_big = 0;
  for (size_t k = 0; k < n; ++k) {
    if (a.NullAt(k) || b.NullAt(k)) {
      nulls[k] = 1;
      continue;
    }
    const int64_t x = a.I64(k);
    const int64_t y = b.I64(k);
    int64_t out;
    if (op == BinaryOp::kAdd) {
      out = x + y;
    } else if (op == BinaryOp::kSub) {
      out = x - y;
    } else if (op == BinaryOp::kMul) {
      out = x * y;
    } else if (op == BinaryOp::kDiv) {
      if (y == 0) return Status::ExecutionError("division by zero");
      out = x / y;
    } else {
      if (y == 0) return Status::ExecutionError("modulo by zero");
      out = x % y;
    }
    i64s[k] = out;
    if (narrow) {
      if (out >= INT32_MIN && out <= INT32_MAX) {
        ++n_int;
      } else {
        big[k] = 1;
        ++n_big;
      }
    }
  }
  Vec out;
  if (!narrow || n_int == 0) {
    out.type = DataType::kBigInt;
    out.i64s = std::move(i64s);
    out.nulls = std::move(nulls);
    return out;
  }
  if (n_big == 0) {
    out.type = DataType::kInt;
    out.i64s = std::move(i64s);
    out.nulls = std::move(nulls);
    return out;
  }
  // Per-row INT narrowing produced a mix of INT and BIGINT (overflow rows
  // promote), exactly like the row path — degrade to generic values.
  out.vals.resize(n);
  for (size_t k = 0; k < n; ++k) {
    if (nulls[k] != 0) continue;  // default-constructed Value is NULL
    out.vals[k] = big[k] != 0 ? Value::BigInt(i64s[k])
                              : Value::Int(static_cast<int32_t>(i64s[k]));
  }
  return out;
}

Result<Vec> GenBinVec(BinaryOp op, const Vec& l, const Vec& r, size_t n) {
  if ((l.is_const && l.cval.is_null()) || (r.is_const && r.cval.is_null())) {
    return ConstVec(Value::Null());
  }
  if (op == BinaryOp::kLike && !l.generic() && !r.generic() &&
      StaticType(l) == DataType::kVarchar &&
      StaticType(r) == DataType::kVarchar) {
    std::vector<uint8_t> bools(n, 0);
    std::vector<uint8_t> nulls(n, 0);
    for (size_t k = 0; k < n; ++k) {
      if (l.NullAt(k) || r.NullAt(k)) {
        nulls[k] = 1;
        continue;
      }
      bools[k] = SqlLike(StrAt(l, k), StrAt(r, k)) ? 1 : 0;
    }
    return BoolVec(std::move(bools), std::move(nulls));
  }
  return GenericBinFallback(op, l, r, n);
}

/// ToTruth per selection position: 0 = FALSE, 1 = TRUE, 2 = NULL. Errors
/// at the first erroring row, like the row path's per-row ToTruth.
Result<std::vector<uint8_t>> TruthOf(const Vec& v, size_t n) {
  std::vector<uint8_t> t(n, 0);
  if (v.is_const) {
    FEDFLOW_ASSIGN_OR_RETURN(Value tv, ToTruth(v.cval));
    const uint8_t u = tv.is_null() ? 2 : (tv.AsBool() ? 1 : 0);
    std::fill(t.begin(), t.end(), u);
    return t;
  }
  if (v.generic()) {
    for (size_t k = 0; k < n; ++k) {
      FEDFLOW_ASSIGN_OR_RETURN(Value tv, ToTruth(v.vals[k]));
      t[k] = tv.is_null() ? 2 : (tv.AsBool() ? 1 : 0);
    }
    return t;
  }
  switch (v.type) {
    case DataType::kNull:
      break;  // unreachable: generic() covered above
    case DataType::kBool:
      for (size_t k = 0; k < n; ++k) {
        t[k] = v.nulls[k] != 0 ? 2 : (v.bools[k] != 0 ? 1 : 0);
      }
      break;
    case DataType::kInt:
    case DataType::kBigInt:
      for (size_t k = 0; k < n; ++k) {
        t[k] = v.nulls[k] != 0 ? 2 : (v.i64s[k] != 0 ? 1 : 0);
      }
      break;
    case DataType::kDouble:
      for (size_t k = 0; k < n; ++k) {
        t[k] = v.nulls[k] != 0
                   ? 2
                   : (static_cast<int64_t>(v.f64s[k]) != 0 ? 1 : 0);
      }
      break;
    case DataType::kVarchar:
      for (size_t k = 0; k < n; ++k) {
        if (v.nulls[k] != 0) {
          t[k] = 2;
          continue;
        }
        Result<Value> tv = ToTruth(v.At(k));  // always the conversion error
        return tv.status();
      }
      break;
  }
  return t;
}

Vec FromColumn(const ColumnData& col, const std::vector<uint32_t>& sel) {
  Vec v;
  const size_t n = sel.size();
  if (col.is_generic()) {
    v.vals.reserve(n);
    for (size_t k = 0; k < n; ++k) v.vals.push_back(col.value_data()[sel[k]]);
    return v;
  }
  v.type = col.type();
  v.nulls.resize(n);
  const std::vector<uint8_t>& cn = col.null_map();
  for (size_t k = 0; k < n; ++k) v.nulls[k] = cn[sel[k]];
  switch (col.type()) {
    case DataType::kNull:
      break;  // unreachable: kNull columns are generic
    case DataType::kBool:
      v.bools.resize(n);
      for (size_t k = 0; k < n; ++k) v.bools[k] = col.bool_data()[sel[k]];
      break;
    case DataType::kInt:
      v.i64s.resize(n);
      for (size_t k = 0; k < n; ++k) v.i64s[k] = col.int_data()[sel[k]];
      break;
    case DataType::kBigInt:
      v.i64s.resize(n);
      for (size_t k = 0; k < n; ++k) v.i64s[k] = col.bigint_data()[sel[k]];
      break;
    case DataType::kDouble:
      v.f64s.resize(n);
      for (size_t k = 0; k < n; ++k) v.f64s[k] = col.double_data()[sel[k]];
      break;
    case DataType::kVarchar:
      v.strs.resize(n);
      for (size_t k = 0; k < n; ++k) v.strs[k] = &col.string_data()[sel[k]];
      break;
  }
  return v;
}

Result<Vec> EvalVNode(const std::vector<VNode>& nodes, int idx,
                      const ColumnBatch& batch,
                      const std::vector<uint32_t>& sel) {
  const VNode& node = nodes[static_cast<size_t>(idx)];
  const size_t n = sel.size();
  switch (node.kind) {
    case VKind::kConst:
      return ConstVec(node.cval);
    case VKind::kCol:
      return FromColumn(batch.column(node.col), sel);
    case VKind::kAnd:
    case VKind::kOr: {
      const bool is_and = node.kind == VKind::kAnd;
      FEDFLOW_ASSIGN_OR_RETURN(Vec l,
                               EvalVNode(nodes, node.left, batch, sel));
      FEDFLOW_ASSIGN_OR_RETURN(std::vector<uint8_t> lt, TruthOf(l, n));
      // The row path evaluates the right side exactly when the left is not
      // the short-circuiting value (FALSE for AND, TRUE for OR) — mirror
      // that with a sub-selection.
      std::vector<uint32_t> subrows;
      subrows.reserve(n);
      for (size_t k = 0; k < n; ++k) {
        const bool need_right = is_and ? lt[k] != 0 : lt[k] != 1;
        if (need_right) subrows.push_back(sel[k]);
      }
      std::vector<uint8_t> rt;
      if (!subrows.empty()) {
        FEDFLOW_ASSIGN_OR_RETURN(Vec r,
                                 EvalVNode(nodes, node.right, batch, subrows));
        FEDFLOW_ASSIGN_OR_RETURN(rt, TruthOf(r, subrows.size()));
      }
      std::vector<uint8_t> bools(n, 0);
      std::vector<uint8_t> nulls(n, 0);
      size_t j = 0;
      for (size_t k = 0; k < n; ++k) {
        if (is_and) {
          if (lt[k] == 0) continue;  // FALSE without evaluating the right
          const uint8_t rv = rt[j++];
          if (rv == 0) continue;  // FALSE
          if (lt[k] == 2 || rv == 2) {
            nulls[k] = 1;
          } else {
            bools[k] = 1;
          }
        } else {
          if (lt[k] == 1) {
            bools[k] = 1;  // TRUE without evaluating the right
            continue;
          }
          const uint8_t rv = rt[j++];
          if (rv == 1) {
            bools[k] = 1;
          } else if (lt[k] == 2 || rv == 2) {
            nulls[k] = 1;
          }
        }
      }
      return BoolVec(std::move(bools), std::move(nulls));
    }
    case VKind::kNot: {
      FEDFLOW_ASSIGN_OR_RETURN(Vec v, EvalVNode(nodes, node.left, batch, sel));
      FEDFLOW_ASSIGN_OR_RETURN(std::vector<uint8_t> t, TruthOf(v, n));
      std::vector<uint8_t> bools(n, 0);
      std::vector<uint8_t> nulls(n, 0);
      for (size_t k = 0; k < n; ++k) {
        if (t[k] == 2) {
          nulls[k] = 1;
        } else {
          bools[k] = t[k] == 0 ? 1 : 0;
        }
      }
      return BoolVec(std::move(bools), std::move(nulls));
    }
    case VKind::kIsNull:
    case VKind::kIsNotNull: {
      FEDFLOW_ASSIGN_OR_RETURN(Vec v, EvalVNode(nodes, node.left, batch, sel));
      const bool want_null = node.kind == VKind::kIsNull;
      if (v.is_const) {
        return ConstVec(Value::Bool(v.cval.is_null() == want_null));
      }
      std::vector<uint8_t> bools(n, 0);
      for (size_t k = 0; k < n; ++k) {
        bools[k] = v.NullAt(k) == want_null ? 1 : 0;
      }
      return BoolVec(std::move(bools), std::vector<uint8_t>(n, 0));
    }
    case VKind::kNeg: {
      FEDFLOW_ASSIGN_OR_RETURN(Vec v, EvalVNode(nodes, node.left, batch, sel));
      if (v.is_const) {
        FEDFLOW_ASSIGN_OR_RETURN(Value nv,
                                 ApplyUnaryOp(sql::UnaryOp::kNeg, v.cval));
        return ConstVec(std::move(nv));
      }
      if (!v.generic() &&
          (v.type == DataType::kInt || v.type == DataType::kBigInt ||
           v.type == DataType::kDouble)) {
        Vec out;
        out.type = v.type;
        out.nulls = v.nulls;
        if (v.type == DataType::kDouble) {
          out.f64s.resize(n);
          for (size_t k = 0; k < n; ++k) out.f64s[k] = -v.f64s[k];
        } else {
          out.i64s.resize(n);
          for (size_t k = 0; k < n; ++k) {
            if (v.type == DataType::kInt) {
              out.i64s[k] = -static_cast<int32_t>(v.i64s[k]);
            } else {
              out.i64s[k] = -v.i64s[k];
            }
          }
        }
        return out;
      }
      Vec out;
      out.vals.resize(n);
      for (size_t k = 0; k < n; ++k) {
        FEDFLOW_ASSIGN_OR_RETURN(out.vals[k],
                                 ApplyUnaryOp(sql::UnaryOp::kNeg, v.At(k)));
      }
      return out;
    }
    case VKind::kCmp: {
      FEDFLOW_ASSIGN_OR_RETURN(Vec l, EvalVNode(nodes, node.left, batch, sel));
      FEDFLOW_ASSIGN_OR_RETURN(Vec r,
                               EvalVNode(nodes, node.right, batch, sel));
      return CmpVec(node.bop, l, r, n);
    }
    case VKind::kArith: {
      FEDFLOW_ASSIGN_OR_RETURN(Vec l, EvalVNode(nodes, node.left, batch, sel));
      FEDFLOW_ASSIGN_OR_RETURN(Vec r,
                               EvalVNode(nodes, node.right, batch, sel));
      return ArithVec(node.bop, l, r, n);
    }
    case VKind::kGenericBin: {
      FEDFLOW_ASSIGN_OR_RETURN(Vec l, EvalVNode(nodes, node.left, batch, sel));
      FEDFLOW_ASSIGN_OR_RETURN(Vec r,
                               EvalVNode(nodes, node.right, batch, sel));
      return GenBinVec(node.bop, l, r, n);
    }
  }
  return Status::Internal("bad vector predicate node");
}

/// Flattens `expr` into `nodes`; -1 when the expression is not vectorizable
/// (CASE, function calls, unresolvable references).
int CompileVNode(const Expr& expr, const RowScope& scope,
                 std::vector<VNode>* nodes) {
  switch (expr.kind()) {
    case ExprKind::kLiteral: {
      VNode node;
      node.kind = VKind::kConst;
      node.cval = static_cast<const LiteralExpr&>(expr).value();
      nodes->push_back(std::move(node));
      return static_cast<int>(nodes->size()) - 1;
    }
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      Result<RowScope::ResolvedRef> loc =
          scope.Resolve(ref.qualifier(), ref.name());
      if (!loc.ok()) return -1;
      VNode node;
      if (loc->pos < 0) {
        node.kind = VKind::kConst;
        node.cval = std::move(loc->param);
      } else {
        node.kind = VKind::kCol;
        node.col = static_cast<size_t>(loc->pos);
      }
      nodes->push_back(std::move(node));
      return static_cast<int>(nodes->size()) - 1;
    }
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(expr);
      const int left = CompileVNode(*bin.left(), scope, nodes);
      if (left < 0) return -1;
      const int right = CompileVNode(*bin.right(), scope, nodes);
      if (right < 0) return -1;
      VNode node;
      node.bop = bin.op();
      node.left = left;
      node.right = right;
      switch (bin.op()) {
        case BinaryOp::kAnd:
          node.kind = VKind::kAnd;
          break;
        case BinaryOp::kOr:
          node.kind = VKind::kOr;
          break;
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          node.kind = VKind::kCmp;
          break;
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
          node.kind = VKind::kArith;
          break;
        case BinaryOp::kConcat:
        case BinaryOp::kLike:
          node.kind = VKind::kGenericBin;
          break;
      }
      nodes->push_back(std::move(node));
      return static_cast<int>(nodes->size()) - 1;
    }
    case ExprKind::kUnary: {
      const auto& un = static_cast<const UnaryExpr&>(expr);
      const int child = CompileVNode(*un.operand(), scope, nodes);
      if (child < 0) return -1;
      VNode node;
      node.uop = un.op();
      node.left = child;
      switch (un.op()) {
        case UnaryOp::kNeg:
          node.kind = VKind::kNeg;
          break;
        case UnaryOp::kNot:
          node.kind = VKind::kNot;
          break;
        case UnaryOp::kIsNull:
          node.kind = VKind::kIsNull;
          break;
        case UnaryOp::kIsNotNull:
          node.kind = VKind::kIsNotNull;
          break;
      }
      nodes->push_back(std::move(node));
      return static_cast<int>(nodes->size()) - 1;
    }
    case ExprKind::kFunctionCall:
    case ExprKind::kCase:
      return -1;
  }
  return -1;
}

}  // namespace

std::optional<VectorPredicate> VectorPredicate::Compile(
    const sql::Expr& expr, const RowScope& scope) {
  VectorPredicate pred;
  pred.root_ = CompileVNode(expr, scope, &pred.nodes_);
  if (pred.root_ < 0) return std::nullopt;
  return pred;
}

Status VectorPredicate::FilterSelection(const ColumnBatch& batch,
                                        std::vector<uint32_t>* sel) const {
  if (sel->empty()) return Status::OK();
  Result<Vec> v = EvalVNode(nodes_, root_, batch, *sel);
  FEDFLOW_RETURN_NOT_OK(v.status());
  // The filter keeps exactly the rows whose value is non-NULL BOOLEAN TRUE
  // (no numeric coercion at the root — same rule as the row filter).
  if (v->is_const) {
    if (v->cval.is_null() || v->cval.type() != DataType::kBool ||
        !v->cval.AsBool()) {
      sel->clear();
    }
    return Status::OK();
  }
  size_t w = 0;
  if (v->generic()) {
    for (size_t k = 0; k < sel->size(); ++k) {
      const Value& val = v->vals[k];
      if (!val.is_null() && val.type() == DataType::kBool && val.AsBool()) {
        (*sel)[w++] = (*sel)[k];
      }
    }
  } else if (v->type == DataType::kBool) {
    for (size_t k = 0; k < sel->size(); ++k) {
      if (v->nulls[k] == 0 && v->bools[k] != 0) {
        (*sel)[w++] = (*sel)[k];
      }
    }
  }
  // Any other typed result can never be BOOLEAN TRUE: keep nothing (w = 0).
  sel->resize(w);
  return Status::OK();
}

}  // namespace fedflow::fdbs
