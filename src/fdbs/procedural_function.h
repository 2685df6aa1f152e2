// Procedural table functions: the FDBS-side mechanism behind the paper's
// "enhanced Java UDTF architecture". The function body is host-language code
// (C++ here, Java in the paper) that may issue arbitrarily many SQL
// statements through a JDBC-like client — lifting the "one SQL statement"
// restriction of SQL-bodied I-UDTFs and adding control structures (loops).
#ifndef FEDFLOW_FDBS_PROCEDURAL_FUNCTION_H_
#define FEDFLOW_FDBS_PROCEDURAL_FUNCTION_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "fdbs/eval.h"
#include "fdbs/table_function.h"
#include "sql/ast.h"

namespace fedflow::fdbs {

class Database;

/// JDBC-analog handle a procedural body uses to run SQL against the owning
/// database: SQL text (parsed per statement) or a statement prepared once
/// with its parameters bound per execution. Either way an optional
/// per-statement overhead (the "JDBC call") is charged to the context clock.
class SqlClient {
 public:
  /// `statement_overhead_us` models the driver round trip per statement.
  SqlClient(Database* db, ExecContext* ctx, VDuration statement_overhead_us)
      : db_(db), ctx_(ctx), overhead_us_(statement_overhead_us) {}

  /// Parses and executes one SQL statement and returns its result table.
  Result<Table> Query(const std::string& sql);

  /// Executes a prepared SELECT with `params` bound to its `Name.Param`
  /// references (a PreparedStatement analog); nothing is parsed.
  Result<Table> Query(const sql::SelectStmt& stmt, const ParamScope& params);

  /// Number of statements issued through this client.
  int statements_issued() const { return statements_; }

 private:
  /// Counts and charges one statement; the context it runs in, one UDTF
  /// nesting level deeper.
  Result<ExecContext> BeginStatement();

  Database* db_;
  ExecContext* ctx_;
  VDuration overhead_us_;
  int statements_ = 0;
};

/// Body of a procedural table function.
using ProceduralBody = std::function<Result<Table>(
    const std::vector<Value>& args, SqlClient* client)>;

/// A table function implemented in the host language.
class ProceduralTableFunction : public TableFunction {
 public:
  ProceduralTableFunction(std::string name, std::vector<Column> params,
                          Schema result_schema, ProceduralBody body,
                          VDuration statement_overhead_us = 0)
      : name_(std::move(name)),
        params_(std::move(params)),
        schema_(std::move(result_schema)),
        body_(std::move(body)),
        overhead_us_(statement_overhead_us) {}

  const std::string& name() const override { return name_; }
  const std::vector<Column>& params() const override { return params_; }
  const Schema& result_schema() const override { return schema_; }

  /// Runs the body with a fresh SqlClient; the produced table is coerced to
  /// the declared result schema and streamed out of the materialized table.
  Result<RowSourcePtr> InvokeStream(const std::vector<Value>& args,
                                    ExecContext& ctx,
                                    size_t batch_size) override;

 private:
  std::string name_;
  std::vector<Column> params_;
  Schema schema_;
  ProceduralBody body_;
  VDuration overhead_us_;
};

}  // namespace fedflow::fdbs

#endif  // FEDFLOW_FDBS_PROCEDURAL_FUNCTION_H_
