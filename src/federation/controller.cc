#include "federation/controller.h"

#include "fdbs/exec_context.h"
#include "sim/flow_state.h"

namespace fedflow::federation {

Result<sim::FlowState*> RequireFlow(const fdbs::ExecContext& ctx,
                                    const std::string& function) {
  sim::FlowState* flow = ctx.flow;
  if (flow == nullptr || flow->controller == nullptr ||
      flow->warmth == nullptr) {
    return Status::ExecutionError(
        function +
        ": no flow — a coupling runs only inside a sim::FlowState that "
        "carries a leased controller and its warmth ledger");
  }
  return flow;
}

Result<Controller::DispatchResult> Controller::Dispatch(
    const std::string& system, const std::string& function,
    const std::vector<Value>& args) const {
  if (!started_) {
    return Status::ExecutionError(
        "controller not started; boot the integration environment first");
  }
  dispatch_count_.fetch_add(1);
  FEDFLOW_ASSIGN_OR_RETURN(appsys::AppSystem * sys, systems_->Get(system));
  FEDFLOW_ASSIGN_OR_RETURN(appsys::AppSystem::CallResult call,
                           sys->Call(function, args));
  DispatchResult result;
  result.table = std::move(call.table);
  result.app_cost_us = call.cost_us;
  result.dispatch_cost_us = model_->controller_dispatch_us;
  return result;
}

}  // namespace fedflow::federation
