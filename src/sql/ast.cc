#include "sql/ast.h"

#include <charconv>
#include <sstream>

namespace fedflow::sql {

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kConcat:
      return "||";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kLike:
      return "LIKE";
  }
  return "?";
}

std::string LiteralExpr::ToSql() const {
  if (value_.type() == DataType::kVarchar) {
    std::string escaped;
    for (char c : value_.AsVarchar()) {
      if (c == '\'') escaped += "''";
      else escaped.push_back(c);
    }
    return "'" + escaped + "'";
  }
  if (value_.type() == DataType::kDouble) {
    // The shortest text that reads back as the same double; a bare integer
    // ("3") would lex as an INT literal, so it keeps a fraction.
    char buf[32];
    const std::to_chars_result printed =
        std::to_chars(buf, buf + sizeof(buf), value_.AsDouble());
    std::string text(buf, printed.ptr);
    if (text.find_first_not_of("-0123456789") == std::string::npos) {
      text += ".0";
    }
    return text;
  }
  return value_.ToString();
}

std::string ColumnRefExpr::ToSql() const {
  if (qualifier_.empty()) return name_;
  return qualifier_ + "." + name_;
}

std::string FunctionCallExpr::ToSql() const {
  std::ostringstream os;
  os << name_ << "(";
  if (star_arg_) {
    os << "*";
  } else {
    for (size_t i = 0; i < args_.size(); ++i) {
      if (i > 0) os << ", ";
      os << args_[i]->ToSql();
    }
  }
  os << ")";
  return os.str();
}

std::string BinaryExpr::ToSql() const {
  return "(" + left_->ToSql() + " " + BinaryOpName(op_) + " " +
         right_->ToSql() + ")";
}

std::string UnaryExpr::ToSql() const {
  switch (op_) {
    case UnaryOp::kNeg:
      return "(-" + operand_->ToSql() + ")";
    case UnaryOp::kNot:
      return "(NOT " + operand_->ToSql() + ")";
    case UnaryOp::kIsNull:
      return "(" + operand_->ToSql() + " IS NULL)";
    case UnaryOp::kIsNotNull:
      return "(" + operand_->ToSql() + " IS NOT NULL)";
  }
  return "?";
}

std::string CaseExpr::ToSql() const {
  std::ostringstream os;
  os << "CASE";
  for (const Branch& b : branches_) {
    os << " WHEN " << b.condition->ToSql() << " THEN " << b.value->ToSql();
  }
  if (else_value_ != nullptr) os << " ELSE " << else_value_->ToSql();
  os << " END";
  return os.str();
}

std::string SelectStmt::ToSql() const {
  std::ostringstream os;
  os << "SELECT ";
  if (distinct) os << "DISTINCT ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) os << ", ";
    const SelectItem& it = items[i];
    if (it.is_star) {
      if (!it.star_qualifier.empty()) os << it.star_qualifier << ".";
      os << "*";
    } else {
      os << it.expr->ToSql();
      if (!it.alias.empty()) os << " AS " << it.alias;
    }
  }
  if (!from.empty()) {
    os << " FROM ";
    for (size_t i = 0; i < from.size(); ++i) {
      if (i > 0) os << ", ";
      const TableRef& tr = from[i];
      if (tr.kind == TableRefKind::kBaseTable) {
        os << tr.name;
        if (!tr.alias.empty()) os << " AS " << tr.alias;
      } else {
        os << "TABLE (" << tr.name << "(";
        for (size_t a = 0; a < tr.args.size(); ++a) {
          if (a > 0) os << ", ";
          os << tr.args[a]->ToSql();
        }
        os << ")) AS " << tr.alias;
      }
    }
  }
  if (where) os << " WHERE " << where->ToSql();
  if (!group_by.empty()) {
    os << " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) os << ", ";
      os << group_by[i]->ToSql();
    }
  }
  if (having) os << " HAVING " << having->ToSql();
  if (!order_by.empty()) {
    os << " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) os << ", ";
      os << order_by[i].expr->ToSql();
      if (!order_by[i].ascending) os << " DESC";
    }
  }
  if (limit.has_value()) os << " LIMIT " << *limit;
  return os.str();
}

}  // namespace fedflow::sql
