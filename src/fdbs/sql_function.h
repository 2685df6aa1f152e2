// SQL-bodied table functions: CREATE FUNCTION ... LANGUAGE SQL RETURN SELECT.
// These are the paper's I-UDTFs — federated functions whose integration logic
// is one SQL statement over A-UDTFs (the "one SQL statement" restriction of
// the product the paper used is faithfully enforced by the grammar).
#ifndef FEDFLOW_FDBS_SQL_FUNCTION_H_
#define FEDFLOW_FDBS_SQL_FUNCTION_H_

#include <memory>
#include <string>
#include <vector>

#include "fdbs/table_function.h"
#include "sql/ast.h"

namespace fedflow::fdbs {

/// Table function backed by a single SELECT statement.
class SqlTableFunction : public TableFunction {
 public:
  explicit SqlTableFunction(std::shared_ptr<sql::CreateFunctionStmt> def)
      : def_(std::move(def)) {}

  const std::string& name() const override { return def_->name; }
  const std::vector<Column>& params() const override { return def_->params; }
  const Schema& result_schema() const override { return def_->returns; }

  /// Binds arguments to parameters and runs the body to completion. The body
  /// result is coerced column-by-column to the declared RETURNS TABLE schema
  /// and then streamed out of the materialized table.
  Result<RowSourcePtr> InvokeStream(const std::vector<Value>& args,
                                    ExecContext& ctx,
                                    size_t batch_size) override;

  /// The parsed function body (for inspection and tests).
  const sql::SelectStmt& body() const { return *def_->body; }

 private:
  std::shared_ptr<sql::CreateFunctionStmt> def_;
};

}  // namespace fedflow::fdbs

#endif  // FEDFLOW_FDBS_SQL_FUNCTION_H_
