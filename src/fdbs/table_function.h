// The user-defined table function (UDTF) interface: the FDBS's only window
// onto non-SQL sources, exactly as in the paper (read access, result returned
// as a table, referencable in the FROM clause). A table function has one
// invocation method, InvokeStream: the executor's lateral chain is its only
// caller, and a function whose transport cannot stream (an SQL body, a
// procedural body) materializes its result and hands it out through
// MakeTableSource.
#ifndef FEDFLOW_FDBS_TABLE_FUNCTION_H_
#define FEDFLOW_FDBS_TABLE_FUNCTION_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/row_source.h"
#include "common/table.h"
#include "fdbs/exec_context.h"

namespace fedflow::fdbs {

/// A table function: typed parameters in, a table out. Implementations
/// include SQL-bodied I-UDTFs, A-UDTFs bridging to application systems, and
/// the SQL/MED wrapper UDTF that starts workflow processes.
class TableFunction {
 public:
  virtual ~TableFunction() = default;

  /// Function name as referenced in SQL (case-insensitive).
  virtual const std::string& name() const = 0;

  /// Declared parameters (names are informational; binding is positional).
  virtual const std::vector<Column>& params() const = 0;

  /// Schema of the returned table.
  virtual const Schema& result_schema() const = 0;

  /// Invokes the function and returns a source the caller pulls in batches
  /// of `batch_size` rows, so results flow into the consuming pipeline
  /// without a full materialization at the call boundary. `args` are already
  /// evaluated and coerced to the declared parameter types; the source's
  /// schema must have result_schema()'s arity.
  virtual Result<RowSourcePtr> InvokeStream(const std::vector<Value>& args,
                                            ExecContext& ctx,
                                            size_t batch_size) = 0;
};

}  // namespace fedflow::fdbs

#endif  // FEDFLOW_FDBS_TABLE_FUNCTION_H_
