// The controller: the long-running mediator process the paper had to
// introduce for DB2's security model (UDTF process and database connection
// must be separate processes). It is started once when the environment boots,
// holds the connections to the application systems, and keeps the WfMS
// connect information alive — which is why removing it speeds up single calls
// (the paper's controller ablation).
#ifndef FEDFLOW_FEDERATION_CONTROLLER_H_
#define FEDFLOW_FEDERATION_CONTROLLER_H_

#include <atomic>
#include <string>
#include <vector>

#include "appsys/registry.h"
#include "common/result.h"
#include "common/table.h"
#include "sim/latency.h"

namespace fedflow::fdbs {
struct ExecContext;
}  // namespace fedflow::fdbs

namespace fedflow::sim {
struct FlowState;
}  // namespace fedflow::sim

namespace fedflow::federation {

/// Long-lived dispatcher between UDTF processes and application systems.
class Controller {
 public:
  Controller(const appsys::AppSystemRegistry* systems,
             const sim::LatencyModel* model)
      : systems_(systems), model_(model) {}

  /// Boots the controller (once per environment start).
  void Start() { started_ = true; }
  void Stop() { started_ = false; }
  bool started() const { return started_; }

  /// Result of one dispatched local-function call.
  struct DispatchResult {
    Table table;
    VDuration app_cost_us = 0;       ///< server-side work in the app system
    VDuration dispatch_cost_us = 0;  ///< controller's own run (paper: ~0%)
  };

  /// Routes a local-function call to its application system. Fails when the
  /// controller has not been started (the environment is not booted).
  Result<DispatchResult> Dispatch(const std::string& system,
                                  const std::string& function,
                                  const std::vector<Value>& args) const;

  /// Number of dispatches since construction.
  int64_t dispatch_count() const { return dispatch_count_.load(); }

 private:
  const appsys::AppSystemRegistry* systems_;
  const sim::LatencyModel* model_;
  bool started_ = false;
  mutable std::atomic<int64_t> dispatch_count_{0};
};

/// The flow a coupling invocation of `function` runs in: the statement's
/// ctx.flow, which must carry a leased controller (local calls dispatch
/// through it) and that controller's warmth ledger (warm-up surcharges and
/// MarkRun land there). ExecutionError naming the missing flow otherwise.
Result<sim::FlowState*> RequireFlow(const fdbs::ExecContext& ctx,
                                    const std::string& function);

}  // namespace fedflow::federation

#endif  // FEDFLOW_FEDERATION_CONTROLLER_H_
