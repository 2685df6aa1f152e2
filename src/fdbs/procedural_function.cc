#include "fdbs/procedural_function.h"

#include "fdbs/database.h"

namespace fedflow::fdbs {

Result<ExecContext> SqlClient::BeginStatement() {
  ++statements_;
  if (ctx_->clock != nullptr && overhead_us_ > 0) {
    ctx_->clock->Charge("JDBC calls", overhead_us_);
  }
  ExecContext inner = *ctx_;
  inner.depth = ctx_->depth + 1;
  if (inner.depth >= ExecContext::kMaxDepth) {
    return Status::ExecutionError("maximum UDTF nesting depth exceeded");
  }
  return inner;
}

Result<Table> SqlClient::Query(const std::string& sql) {
  FEDFLOW_ASSIGN_OR_RETURN(ExecContext inner, BeginStatement());
  return db_->Execute(sql, inner);
}

Result<Table> SqlClient::Query(const sql::SelectStmt& stmt,
                               const ParamScope& params) {
  FEDFLOW_ASSIGN_OR_RETURN(ExecContext inner, BeginStatement());
  return db_->ExecuteSelect(stmt, inner, &params);
}

Result<RowSourcePtr> ProceduralTableFunction::InvokeStream(
    const std::vector<Value>& args, ExecContext& ctx, size_t batch_size) {
  if (ctx.db == nullptr) {
    return Status::Internal("procedural function invoked without a database");
  }
  if (args.size() != params_.size()) {
    return Status::InvalidArgument(name_ + " expects " +
                                   std::to_string(params_.size()) +
                                   " argument(s)");
  }
  SqlClient client(ctx.db, &ctx, overhead_us_);
  FEDFLOW_ASSIGN_OR_RETURN(Table raw, body_(args, &client));
  Table out(schema_);
  for (Row& r : raw.mutable_rows()) {
    FEDFLOW_RETURN_NOT_OK(out.AppendRow(std::move(r)));
  }
  return MakeTableSource(std::move(out), batch_size);
}

}  // namespace fedflow::fdbs
