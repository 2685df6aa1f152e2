#include "analysis/dataflow/budget_analysis.h"

#include "analysis/dataflow/dataflow_lint.h"

#include <algorithm>
#include <string>

#include "federation/classify.h"
#include "plan/cost.h"
#include "sim/system_state.h"

namespace fedflow::analysis::dataflow {

BudgetAnalysisResult AnalyzeBudget(
    const plan::FedPlan& plan, const federation::FederatedFunctionSpec& spec,
    const sim::LatencyModel& model, VDuration deadline_us,
    const sim::RetryPolicy& retry) {
  BudgetAnalysisResult result;
  plan::PlanCostEstimate estimate = plan::EstimatePlan(plan, model);
  result.hot_wfms_us = estimate.wfms_elapsed_us;
  result.hot_udtf_us = estimate.udtf_elapsed_us;
  result.cold_surcharge_us =
      sim::WarmupSurchargeUs(model, sim::SystemState::Warmth::kCold);

  if (deadline_us > 0) {
    // The deployment picks ONE lowering; the plan is deadline-feasible when
    // its cheapest supported lowering fits.
    VDuration best = result.hot_wfms_us;
    const char* best_name = "WfMS";
    if (federation::UdtfSupports(plan.mapping_case) &&
        result.hot_udtf_us < best) {
      best = result.hot_udtf_us;
      best_name = "UDTF";
    }
    std::string per_iteration =
        plan.loop.enabled ? std::string(" per loop iteration") : std::string();
    if (best > deadline_us) {
      result.diagnostics.push_back(Diagnostic{
          Severity::kError, kDfDeadlineInfeasible,
          "spec:" + spec.name + "/deadline",
          "modeled hot critical path" + per_iteration + " (" +
              std::to_string(best) + "us on the " + best_name +
              " lowering, the cheapest supported one) exceeds the " +
              std::to_string(deadline_us) + "us deadline",
          "no lowering of this plan can meet the deadline even fully warm"});
    } else if (best + result.cold_surcharge_us > deadline_us) {
      result.diagnostics.push_back(Diagnostic{
          Severity::kWarning, kDfColdStartOverDeadline,
          "spec:" + spec.name + "/deadline",
          "hot path fits but the cold-start worst case (" +
              std::to_string(best + result.cold_surcharge_us) +
              "us) exceeds the " + std::to_string(deadline_us) +
              "us deadline",
          "the first call after a reboot will miss the deadline"});
    }
  }

  if (retry.enabled()) {
    for (int attempt = 2; attempt <= retry.max_attempts; ++attempt) {
      result.backoff_total_us += retry.BackoffBefore(attempt);
    }
    if (retry.deadline_us > 0 && result.backoff_total_us > retry.deadline_us) {
      result.diagnostics.push_back(Diagnostic{
          Severity::kError, kDfRetryScheduleInfeasible,
          "spec:" + spec.name + "/retry",
          "the retry policy's backoff schedule alone (" +
              std::to_string(result.backoff_total_us) + "us across " +
              std::to_string(retry.max_attempts) +
              " attempts) exceeds its " +
              std::to_string(retry.deadline_us) + "us deadline",
          "the last attempts can never run; lower max_attempts or the "
          "backoff, or raise the deadline"});
    }
  }
  return result;
}

}  // namespace fedflow::analysis::dataflow
