// fedlint pass 2: plan-consistency checks. Compiles a spec into the plan IR
// (plan/fed_plan.h), runs the requested optimizer passes, and verifies that
// the per-architecture lowerings agree with the plan — same multiset of
// local-function calls, every ordering constraint honored (lateral position
// in the SQL lowering, connector reachability in the process lowering), the
// spec-level and IR-level classifiers in agreement, and every sunk predicate
// placed at a point where both of its sides are bound.
#ifndef FEDFLOW_ANALYSIS_PLAN_LINT_H_
#define FEDFLOW_ANALYSIS_PLAN_LINT_H_

#include <vector>

#include "analysis/diagnostic.h"
#include "appsys/registry.h"
#include "federation/spec.h"
#include "plan/optimizer.h"
#include "sim/latency.h"

namespace fedflow::analysis {

// Plan-consistency error codes (FF300..FF349).
inline constexpr char kPlanCallSetMismatch[] = "FF300";
inline constexpr char kPlanOrderingViolation[] = "FF301";
inline constexpr char kPlanClassificationDrift[] = "FF302";
inline constexpr char kPlanPredicateMisplaced[] = "FF303";
inline constexpr char kPlanCompileFailed[] = "FF304";
inline constexpr char kPlanPoolSerialized[] = "FF310";

/// Compiles and optimizes the plan of `spec` under `options`, lowers it to
/// every architecture that supports its mapping case, and cross-checks the
/// lowerings against the plan. The spec should already have passed LintSpec;
/// compile/lowering failures yield FF304 instead of crashing the pass.
/// `prebuilt` (optional) supplies the already-compiled plan for `spec` under
/// `options` — the server's plan cache passes it so the lint does not
/// recompile; it must match (spec, options) or the verdicts are meaningless.
std::vector<Diagnostic> LintPlan(const federation::FederatedFunctionSpec& spec,
                                 const appsys::AppSystemRegistry& systems,
                                 const sim::LatencyModel& model,
                                 const plan::PlanOptions& options = {},
                                 const plan::FedPlan* prebuilt = nullptr);

/// Deployment-consistency check: warns (FF310) when `options` requests the
/// parallelize pass but the deployment's controller pool holds a single
/// controller — parallel plan stages all dispatch through the one controller
/// and serialize, so the optimization cannot deliver its speedup.
std::vector<Diagnostic> LintPoolConfig(
    const federation::FederatedFunctionSpec& spec,
    const plan::PlanOptions& options, size_t controller_pool_size);

}  // namespace fedflow::analysis

#endif  // FEDFLOW_ANALYSIS_PLAN_LINT_H_
