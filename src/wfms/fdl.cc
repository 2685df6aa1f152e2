#include "wfms/fdl.h"

#include <cctype>
#include <map>
#include <memory>
#include <sstream>

#include "common/strings.h"
#include "sql/parser.h"

namespace fedflow::wfms {

namespace {

Status LineError(size_t line_no, const std::string& msg) {
  return Status::InvalidArgument("FDL line " + std::to_string(line_no) + ": " +
                                 msg);
}

/// Splits a line into whitespace-separated words, keeping parenthesized
/// groups (and quoted strings) intact as single words.
Result<std::vector<std::string>> SplitWords(const std::string& line,
                                            size_t line_no) {
  std::vector<std::string> words;
  size_t i = 0;
  const size_t n = line.size();
  while (i < n) {
    if (std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
      continue;
    }
    size_t start = i;
    if (line[i] == '(') {
      int depth = 0;
      while (i < n) {
        if (line[i] == '(') ++depth;
        if (line[i] == ')') {
          --depth;
          if (depth == 0) {
            ++i;
            break;
          }
        }
        ++i;
      }
      if (depth != 0) return LineError(line_no, "unbalanced parentheses");
    } else {
      while (i < n && !std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    }
    words.push_back(line.substr(start, i - start));
  }
  return words;
}

/// Splits "(a, b, c)" on top-level commas.
Result<std::vector<std::string>> SplitArgs(const std::string& group,
                                           size_t line_no) {
  if (group.size() < 2 || group.front() != '(' || group.back() != ')') {
    return LineError(line_no, "expected a parenthesized list, got " + group);
  }
  std::string inner = group.substr(1, group.size() - 2);
  std::vector<std::string> args;
  int depth = 0;
  std::string cur;
  for (char c : inner) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == ',' && depth == 0) {
      args.push_back(Trim(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!Trim(cur).empty()) args.push_back(Trim(cur));
  return args;
}

/// Parses one input-source spec: INPUT.f | Act.Col | Act.* | literal expr.
Result<InputSource> ParseSource(const std::string& text, size_t line_no) {
  // Activity.* (whole table)?
  size_t dot = text.find('.');
  if (dot != std::string::npos && dot + 2 == text.size() &&
      text[dot + 1] == '*') {
    return InputSource::FromActivity(text.substr(0, dot), "");
  }
  FEDFLOW_ASSIGN_OR_RETURN(sql::ExprPtr expr, sql::ParseExpression(text));
  if (expr->kind() == sql::ExprKind::kColumnRef) {
    const auto& ref = static_cast<const sql::ColumnRefExpr&>(*expr);
    if (ref.qualifier().empty()) {
      return LineError(line_no,
                       "input source must be qualified (INPUT.x or Act.Col): " +
                           text);
    }
    if (EqualsIgnoreCase(ref.qualifier(), "INPUT")) {
      return InputSource::FromProcessInput(ref.name());
    }
    return InputSource::FromActivity(ref.qualifier(), ref.name());
  }
  if (expr->kind() == sql::ExprKind::kLiteral) {
    return InputSource::Constant(
        static_cast<const sql::LiteralExpr&>(*expr).value());
  }
  // Negative literals parse as unary minus.
  if (expr->kind() == sql::ExprKind::kUnary) {
    const auto& un = static_cast<const sql::UnaryExpr&>(*expr);
    if (un.op() == sql::UnaryOp::kNeg &&
        un.operand()->kind() == sql::ExprKind::kLiteral) {
      const Value& v =
          static_cast<const sql::LiteralExpr&>(*un.operand()).value();
      if (v.type() == DataType::kInt) return InputSource::Constant(Value::Int(-v.AsInt()));
      if (v.type() == DataType::kBigInt) {
        return InputSource::Constant(Value::BigInt(-v.AsBigInt()));
      }
      if (v.type() == DataType::kDouble) {
        return InputSource::Constant(Value::Double(-v.AsDouble()));
      }
    }
  }
  return LineError(line_no, "unsupported input source: " + text);
}

/// Joins the remaining words back into one string (condition text).
std::string Rest(const std::vector<std::string>& words, size_t from) {
  std::vector<std::string> tail(words.begin() + from, words.end());
  return Join(tail, " ");
}

}  // namespace

Result<std::vector<ProcessDefinition>> ParseFdl(const std::string& text) {
  std::vector<ProcessDefinition> done;
  std::map<std::string, std::shared_ptr<ProcessDefinition>> by_name;

  std::unique_ptr<ProcessDefinition> current;
  std::vector<std::string> raw_lines = Split(text, '\n');

  // Handle '\' line continuations.
  std::vector<std::pair<std::string, size_t>> lines;
  for (size_t i = 0; i < raw_lines.size(); ++i) {
    std::string line = raw_lines[i];
    size_t first = i;
    while (!Trim(line).empty() && Trim(line).back() == '\\' &&
           i + 1 < raw_lines.size()) {
      std::string t = Trim(line);
      line = t.substr(0, t.size() - 1) + " " + raw_lines[i + 1];
      ++i;
    }
    lines.emplace_back(line, first + 1);
  }

  for (const auto& [raw, line_no] : lines) {
    std::string line = raw;
    size_t comment = line.find("--");
    if (comment != std::string::npos) line = line.substr(0, comment);
    line = Trim(line);
    if (line.empty()) continue;

    FEDFLOW_ASSIGN_OR_RETURN(std::vector<std::string> words,
                             SplitWords(line, line_no));
    const std::string head = ToUpper(words[0]);

    if (head == "PROCESS") {
      if (current != nullptr) {
        return LineError(line_no, "nested PROCESS (missing END?)");
      }
      if (words.size() < 2) return LineError(line_no, "PROCESS needs a name");
      current = std::make_unique<ProcessDefinition>();
      current->name = words[1];
      if (words.size() >= 3) {
        FEDFLOW_ASSIGN_OR_RETURN(std::vector<std::string> params,
                                 SplitArgs(words[2], line_no));
        for (const std::string& p : params) {
          std::vector<std::string> parts;
          std::istringstream ps(p);
          std::string w;
          while (ps >> w) parts.push_back(w);
          if (parts.size() != 2) {
            return LineError(line_no, "bad parameter: " + p);
          }
          FEDFLOW_ASSIGN_OR_RETURN(DataType t, DataTypeFromName(parts[1]));
          current->input_params.push_back(Column{parts[0], t});
        }
      }
      continue;
    }

    if (current == nullptr) {
      return LineError(line_no, "statement outside PROCESS ... END");
    }

    if (head == "END") {
      if (current->output_activity.empty() && !current->activities.empty()) {
        current->output_activity = current->activities.back().name;
      }
      FEDFLOW_RETURN_NOT_OK(ValidateProcess(*current));
      auto shared = std::make_shared<ProcessDefinition>(*current);
      by_name[ToUpper(current->name)] = shared;
      done.push_back(std::move(*current));
      current.reset();
      continue;
    }

    if (head == "OUTPUT") {
      if (words.size() != 2) return LineError(line_no, "OUTPUT needs a name");
      current->output_activity = words[1];
      continue;
    }

    if (head == "CONNECT") {
      // CONNECT from -> to [WHEN expr]
      if (words.size() < 4 || words[2] != "->") {
        return LineError(line_no, "expected CONNECT from -> to");
      }
      ControlConnector c;
      c.from = words[1];
      c.to = words[3];
      if (words.size() > 4) {
        if (!EqualsIgnoreCase(words[4], "WHEN")) {
          return LineError(line_no, "expected WHEN");
        }
        std::string cond = Rest(words, 5);
        if (cond.empty()) return LineError(line_no, "empty WHEN condition");
        Result<sql::ExprPtr> expr = sql::ParseExpression(cond);
        if (!expr.ok()) {
          return expr.status().WithContext("FDL line " +
                                           std::to_string(line_no));
        }
        c.condition = std::move(*expr);
      }
      current->connectors.push_back(std::move(c));
      continue;
    }

    if (head == "PROGRAM" || head == "HELPER" || head == "BLOCK") {
      if (words.size() < 2) return LineError(line_no, head + " needs a name");
      ActivityDef a;
      a.name = words[1];
      size_t i = 2;
      if (head == "PROGRAM") {
        a.kind = ActivityKind::kProgram;
        if (i + 1 >= words.size() || !EqualsIgnoreCase(words[i], "SYSTEM")) {
          return LineError(line_no, "expected SYSTEM <name>");
        }
        a.system = words[i + 1];
        i += 2;
        if (i + 1 >= words.size() || !EqualsIgnoreCase(words[i], "FUNCTION")) {
          return LineError(line_no, "expected FUNCTION <name>");
        }
        a.function = words[i + 1];
        i += 2;
      } else if (head == "HELPER") {
        a.kind = ActivityKind::kHelper;
        if (i + 1 >= words.size() || !EqualsIgnoreCase(words[i], "USING")) {
          return LineError(line_no, "expected USING <helper>");
        }
        a.helper = words[i + 1];
        i += 2;
      } else {
        a.kind = ActivityKind::kBlock;
        if (i + 1 >= words.size() || !EqualsIgnoreCase(words[i], "SUB")) {
          return LineError(line_no, "expected SUB <process>");
        }
        auto it = by_name.find(ToUpper(words[i + 1]));
        if (it == by_name.end()) {
          return LineError(line_no,
                           "BLOCK references unknown process " + words[i + 1] +
                               " (define it earlier in the document)");
        }
        a.sub = it->second;
        i += 2;
      }
      // Optional clauses in any order: JOIN OR|AND, IN (...), UNION,
      // MAXITER n, UNTIL <expr to end of line>.
      while (i < words.size()) {
        const std::string kw = ToUpper(words[i]);
        if (kw == "JOIN") {
          if (i + 1 >= words.size()) return LineError(line_no, "JOIN needs OR/AND");
          a.join = EqualsIgnoreCase(words[i + 1], "OR") ? JoinKind::kOr
                                                        : JoinKind::kAnd;
          i += 2;
        } else if (kw == "IN") {
          if (i + 1 >= words.size()) return LineError(line_no, "IN needs (...)");
          FEDFLOW_ASSIGN_OR_RETURN(std::vector<std::string> srcs,
                                   SplitArgs(words[i + 1], line_no));
          for (const std::string& s : srcs) {
            FEDFLOW_ASSIGN_OR_RETURN(InputSource src,
                                     ParseSource(s, line_no));
            a.inputs.push_back(std::move(src));
          }
          i += 2;
        } else if (kw == "UNION") {
          a.accumulate = BlockAccumulate::kUnionAll;
          i += 1;
        } else if (kw == "MAXITER") {
          if (i + 1 >= words.size()) {
            return LineError(line_no, "MAXITER needs a number");
          }
          a.max_iterations = std::atoi(words[i + 1].c_str());
          i += 2;
        } else if (kw == "UNTIL") {
          std::string cond = Rest(words, i + 1);
          if (cond.empty()) return LineError(line_no, "empty UNTIL condition");
          Result<sql::ExprPtr> expr = sql::ParseExpression(cond);
          if (!expr.ok()) {
            return expr.status().WithContext("FDL line " +
                                             std::to_string(line_no));
          }
          a.exit_condition = std::move(*expr);
          i = words.size();
        } else {
          return LineError(line_no, "unexpected token " + words[i]);
        }
      }
      current->activities.push_back(std::move(a));
      continue;
    }

    return LineError(line_no, "unknown statement " + words[0]);
  }

  if (current != nullptr) {
    return Status::InvalidArgument("FDL: missing END for process " +
                                   current->name);
  }
  return done;
}

namespace {

std::string SourceToFdl(const InputSource& s) {
  switch (s.kind) {
    case InputSource::Kind::kConstant:
      // Read back by ParseSource as a SQL expression.
      return sql::LiteralExpr(s.constant).ToSql();
    case InputSource::Kind::kProcessInput:
      return "INPUT." + s.param;
    case InputSource::Kind::kActivityOutput:
      return s.activity + "." + (s.column.empty() ? "*" : s.column);
  }
  return "?";
}

void EmitProcess(const ProcessDefinition& def, std::ostringstream& os,
                 std::vector<std::string>* emitted) {
  // Emit block sub-processes first.
  for (const ActivityDef& a : def.activities) {
    if (a.kind == ActivityKind::kBlock && a.sub != nullptr) {
      bool already = false;
      for (const std::string& name : *emitted) {
        if (EqualsIgnoreCase(name, a.sub->name)) already = true;
      }
      if (!already) EmitProcess(*a.sub, os, emitted);
    }
  }
  emitted->push_back(def.name);

  os << "PROCESS " << def.name;
  if (!def.input_params.empty()) {
    os << " (";
    for (size_t i = 0; i < def.input_params.size(); ++i) {
      if (i > 0) os << ", ";
      os << def.input_params[i].name << " "
         << DataTypeName(def.input_params[i].type);
    }
    os << ")";
  }
  os << "\n";
  for (const ActivityDef& a : def.activities) {
    os << "  ";
    switch (a.kind) {
      case ActivityKind::kProgram:
        os << "PROGRAM " << a.name << " SYSTEM " << a.system << " FUNCTION "
           << a.function;
        break;
      case ActivityKind::kHelper:
        os << "HELPER " << a.name << " USING " << a.helper;
        break;
      case ActivityKind::kBlock:
        os << "BLOCK " << a.name << " SUB " << a.sub->name;
        break;
    }
    if (a.join == JoinKind::kOr) os << " JOIN OR";
    if (!a.inputs.empty()) {
      os << " IN (";
      for (size_t i = 0; i < a.inputs.size(); ++i) {
        if (i > 0) os << ", ";
        os << SourceToFdl(a.inputs[i]);
      }
      os << ")";
    }
    if (a.kind == ActivityKind::kBlock) {
      if (a.accumulate == BlockAccumulate::kUnionAll) os << " UNION";
      if (a.max_iterations != 10000) os << " MAXITER " << a.max_iterations;
      if (a.exit_condition != nullptr) {
        os << " UNTIL " << a.exit_condition->ToSql();
      }
    }
    os << "\n";
  }
  for (const ControlConnector& c : def.connectors) {
    os << "  CONNECT " << c.from << " -> " << c.to;
    if (c.condition != nullptr) os << " WHEN " << c.condition->ToSql();
    os << "\n";
  }
  os << "  OUTPUT " << def.output_activity << "\n";
  os << "END\n";
}

}  // namespace

std::string ToFdl(const ProcessDefinition& def) {
  std::ostringstream os;
  std::vector<std::string> emitted;
  EmitProcess(def, os, &emitted);
  return os.str();
}

}  // namespace fedflow::wfms
