#include "fdbs/database.h"

#include <memory>

#include "fdbs/builtins.h"
#include "fdbs/executor.h"
#include "fdbs/procedure.h"
#include "fdbs/sql_function.h"
#include "sql/parser.h"

namespace fedflow::fdbs {

Database::Database() {
  Status st = RegisterBuiltins(&catalog_);
  (void)st;  // builtin registration cannot fail on a fresh catalog
}

Result<Table> Database::Execute(const std::string& statement) {
  ExecContext ctx;
  ctx.db = this;
  return Execute(statement, ctx);
}

Result<Table> Database::Execute(const std::string& statement,
                                ExecContext& ctx) {
  FEDFLOW_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(statement));
  return Execute(stmt, ctx);
}

Result<Table> Database::ExecuteSelect(const sql::SelectStmt& stmt,
                                      ExecContext& ctx,
                                      const ParamScope* params) {
  if (ctx.db == nullptr) ctx.db = this;
  SelectExecutor executor(this, &ctx, params);
  return executor.Execute(stmt);
}

Result<Table> Database::Execute(const sql::Statement& stmt, ExecContext& ctx) {
  if (ctx.db == nullptr) ctx.db = this;
  switch (stmt.kind) {
    case sql::StatementKind::kSelect:
      return ExecuteSelect(*stmt.select, ctx);
    case sql::StatementKind::kCreateTable: {
      FEDFLOW_RETURN_NOT_OK(catalog_.CreateTable(stmt.create_table->name,
                                                 stmt.create_table->schema));
      return Table();
    }
    case sql::StatementKind::kInsert: {
      // INSERT ... SELECT runs the query BEFORE taking the table handle, so
      // a self-referencing insert reads a consistent snapshot.
      std::vector<Row> new_rows;
      if (stmt.insert->select != nullptr) {
        FEDFLOW_ASSIGN_OR_RETURN(Table selected,
                                 ExecuteSelect(*stmt.insert->select, ctx));
        new_rows = std::move(selected.mutable_rows());
      } else {
        Evaluator eval(&catalog_);
        RowScope empty_scope;
        for (const auto& row_exprs : stmt.insert->rows) {
          Row row;
          row.reserve(row_exprs.size());
          for (const sql::ExprPtr& e : row_exprs) {
            FEDFLOW_ASSIGN_OR_RETURN(Value v, eval.Eval(*e, empty_scope));
            row.push_back(std::move(v));
          }
          new_rows.push_back(std::move(row));
        }
      }
      FEDFLOW_ASSIGN_OR_RETURN(Table * table,
                               catalog_.GetTable(stmt.insert->table));
      for (Row& row : new_rows) {
        FEDFLOW_RETURN_NOT_OK(table->AppendRow(std::move(row)));
      }
      return Table();
    }
    case sql::StatementKind::kUpdate: {
      FEDFLOW_ASSIGN_OR_RETURN(Table * table,
                               catalog_.GetTable(stmt.update->table));
      Evaluator eval(&catalog_);
      RowScope scope;
      scope.AddBinding(stmt.update->table, &table->schema(), 0);
      // Resolve assignment targets up front.
      std::vector<std::pair<size_t, const sql::Expr*>> sets;
      for (const auto& [col, expr] : stmt.update->assignments) {
        FEDFLOW_ASSIGN_OR_RETURN(size_t idx, table->schema().FindColumn(col));
        sets.emplace_back(idx, expr.get());
      }
      int64_t affected = 0;
      for (Row& r : table->mutable_rows()) {
        scope.set_row(&r);
        if (stmt.update->where != nullptr) {
          FEDFLOW_ASSIGN_OR_RETURN(Value keep,
                                   eval.Eval(*stmt.update->where, scope));
          if (keep.is_null() || keep.type() != DataType::kBool ||
              !keep.AsBool()) {
            continue;
          }
        }
        // All right-hand sides see the OLD row (standard SQL).
        std::vector<Value> new_values;
        new_values.reserve(sets.size());
        for (const auto& [idx, expr] : sets) {
          FEDFLOW_ASSIGN_OR_RETURN(Value v, eval.Eval(*expr, scope));
          if (!v.is_null()) {
            FEDFLOW_ASSIGN_OR_RETURN(
                v, v.CastTo(table->schema().column(idx).type));
          }
          new_values.push_back(std::move(v));
        }
        for (size_t i = 0; i < sets.size(); ++i) {
          r[sets[i].first] = std::move(new_values[i]);
        }
        ++affected;
      }
      Schema result_schema;
      result_schema.AddColumn("affected", DataType::kBigInt);
      Table result(result_schema);
      result.AppendRowUnchecked({Value::BigInt(affected)});
      return result;
    }
    case sql::StatementKind::kDelete: {
      FEDFLOW_ASSIGN_OR_RETURN(Table * table,
                               catalog_.GetTable(stmt.del->table));
      Evaluator eval(&catalog_);
      RowScope scope;
      scope.AddBinding(stmt.del->table, &table->schema(), 0);
      std::vector<Row> kept;
      int64_t affected = 0;
      for (Row& r : table->mutable_rows()) {
        bool remove = true;
        if (stmt.del->where != nullptr) {
          scope.set_row(&r);
          FEDFLOW_ASSIGN_OR_RETURN(Value v,
                                   eval.Eval(*stmt.del->where, scope));
          remove = !v.is_null() && v.type() == DataType::kBool && v.AsBool();
        }
        if (remove) {
          ++affected;
        } else {
          kept.push_back(std::move(r));
        }
      }
      table->mutable_rows() = std::move(kept);
      Schema result_schema;
      result_schema.AddColumn("affected", DataType::kBigInt);
      Table result(result_schema);
      result.AppendRowUnchecked({Value::BigInt(affected)});
      return result;
    }
    case sql::StatementKind::kCreateFunction: {
      // The function object owns a copy of the definition (expression
      // nodes are immutable and shared).
      auto def = std::make_shared<sql::CreateFunctionStmt>();
      def->name = stmt.create_function->name;
      def->params = stmt.create_function->params;
      def->returns = stmt.create_function->returns;
      def->body =
          std::make_unique<sql::SelectStmt>(*stmt.create_function->body);
      if (catalog_.HasScalarFunction(def->name)) {
        return Status::AlreadyExists(
            "a scalar function with this name exists: " + def->name);
      }
      FEDFLOW_RETURN_NOT_OK(catalog_.RegisterTableFunction(
          std::make_shared<SqlTableFunction>(std::move(def))));
      return Table();
    }
    case sql::StatementKind::kCreateProcedure: {
      StoredProcedure proc;
      proc.name = stmt.create_procedure->name;
      proc.params = stmt.create_procedure->params;
      proc.body = std::make_shared<std::vector<sql::PsmStatement>>(
          stmt.create_procedure->body);
      FEDFLOW_RETURN_NOT_OK(catalog_.RegisterProcedure(std::move(proc)));
      return Table();
    }
    case sql::StatementKind::kCall: {
      FEDFLOW_ASSIGN_OR_RETURN(const StoredProcedure* proc,
                               catalog_.GetProcedure(stmt.call->name));
      Evaluator eval(&catalog_);
      RowScope empty_scope;
      std::vector<Value> args;
      args.reserve(stmt.call->args.size());
      for (const sql::ExprPtr& e : stmt.call->args) {
        FEDFLOW_ASSIGN_OR_RETURN(Value v, eval.Eval(*e, empty_scope));
        args.push_back(std::move(v));
      }
      return ExecuteProcedure(this, *proc, args, ctx);
    }
    case sql::StatementKind::kDrop: {
      if (stmt.drop->is_procedure) {
        FEDFLOW_RETURN_NOT_OK(catalog_.DropProcedure(stmt.drop->name));
        return Table();
      }
      if (stmt.drop->is_function) {
        FEDFLOW_RETURN_NOT_OK(catalog_.DropTableFunction(stmt.drop->name));
      } else {
        FEDFLOW_RETURN_NOT_OK(catalog_.DropTable(stmt.drop->name));
      }
      return Table();
    }
  }
  return Status::Internal("bad statement kind");
}

}  // namespace fedflow::fdbs
