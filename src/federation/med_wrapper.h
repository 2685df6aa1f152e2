// SQL/MED-style foreign function wrapper interface (ISO SQL Part 9 draft,
// paper §2): a standardized boundary that isolates the FDBS from the
// intricacies of federated function execution. The WfMS coupling implements
// this interface; RegisterWrapperFunction() adapts one wrapper function into
// an FDBS table function (the SQL/MED adapter), which is how the paper
// prototyped the missing SQL/MED support in commercial products. The adapter
// owns what is the same for every wrapper: the function's descriptor, the
// coercion of result rows to its declared schema, and the retry loop around
// the wrapper's single streaming entry point.
#ifndef FEDFLOW_FEDERATION_MED_WRAPPER_H_
#define FEDFLOW_FEDERATION_MED_WRAPPER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/row_source.h"
#include "common/table.h"
#include "fdbs/database.h"
#include "fdbs/exec_context.h"
#include "sim/fault.h"

namespace fedflow::federation {

/// A foreign-function wrapper: exposes named, typed functions of an external
/// engine (here: the WfMS) to the FDBS.
class ForeignFunctionWrapper {
 public:
  virtual ~ForeignFunctionWrapper() = default;

  /// Wrapper identifier (e.g. "wfms").
  virtual std::string Name() const = 0;

  /// Descriptor of one foreign function the wrapper serves.
  struct ForeignFunction {
    std::string name;
    std::vector<Column> params;
    Schema result_schema;
  };

  /// All foreign functions currently served.
  virtual std::vector<ForeignFunction> Functions() const = 0;

  /// Executes one attempt of a foreign function and returns its result rows
  /// as a source pulled in batches of `batch_size`, charging transfer costs
  /// incrementally where the wrapper's transport supports it (and every cost
  /// to ctx.clock when set). The rows arrive in the wrapper's own types; the
  /// adapter coerces them to the declared result schema.
  virtual Result<RowSourcePtr> ExecuteStream(const std::string& function,
                                             const std::vector<Value>& args,
                                             fdbs::ExecContext& ctx,
                                             size_t batch_size) = 0;

  /// Retry policy the FDBS-side adapter applies around ExecuteStream: on a
  /// retriable failure the same function is executed again after a backoff
  /// charged to ctx.clock. Null (the default) disables retries. A wrapper
  /// that keeps recovery state between attempts (the WfMS coupling's
  /// checkpoints) gets its forward recovery driven by this loop.
  virtual const sim::RetryPolicy* retry_policy() const { return nullptr; }
};

/// Registers `function`, served by `wrapper`, as a table function of `db`,
/// so it can be referenced as TABLE(fn(args)) in the FROM clause.
Status RegisterWrapperFunction(
    fdbs::Database* db, std::shared_ptr<ForeignFunctionWrapper> wrapper,
    ForeignFunctionWrapper::ForeignFunction function);

}  // namespace fedflow::federation

#endif  // FEDFLOW_FEDERATION_MED_WRAPPER_H_
