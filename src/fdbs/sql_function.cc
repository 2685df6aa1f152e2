#include "fdbs/sql_function.h"

#include "fdbs/database.h"

namespace fedflow::fdbs {

Result<RowSourcePtr> SqlTableFunction::InvokeStream(
    const std::vector<Value>& args, ExecContext& ctx, size_t batch_size) {
  if (ctx.db == nullptr) {
    return Status::Internal("SQL function invoked without a database");
  }
  if (ctx.depth >= ExecContext::kMaxDepth) {
    return Status::ExecutionError("maximum UDTF nesting depth exceeded in " +
                                  def_->name);
  }
  if (args.size() != def_->params.size()) {
    return Status::InvalidArgument(def_->name + " expects " +
                                   std::to_string(def_->params.size()) +
                                   " argument(s)");
  }
  ParamScope params;
  params.function_name = def_->name;
  for (size_t i = 0; i < args.size(); ++i) {
    FEDFLOW_ASSIGN_OR_RETURN(Value coerced,
                             args[i].CastTo(def_->params[i].type));
    params.params.emplace_back(def_->params[i].name, std::move(coerced));
  }
  ExecContext inner = ctx;
  inner.depth = ctx.depth + 1;
  FEDFLOW_ASSIGN_OR_RETURN(Table body_result,
                           ctx.db->ExecuteSelect(*def_->body, inner, &params));
  if (body_result.schema().num_columns() != def_->returns.num_columns()) {
    return Status::TypeError(
        def_->name + ": body produces " +
        std::to_string(body_result.schema().num_columns()) +
        " column(s) but RETURNS TABLE declares " +
        std::to_string(def_->returns.num_columns()));
  }
  // Rename and coerce to the declared schema.
  Table out(def_->returns);
  for (Row& r : body_result.mutable_rows()) {
    FEDFLOW_RETURN_NOT_OK(out.AppendRow(std::move(r)));
  }
  return MakeTableSource(std::move(out), batch_size);
}

}  // namespace fedflow::fdbs
