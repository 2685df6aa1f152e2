// fedlint pass 3: semantic dataflow analyses over the FedPlan IR (FF400s).
// Where passes 1-2 check shape, these prove facts: inferred column types and
// cast feasibility (schema analysis), interval bounds on rows and per-node
// invocation counts under each lowering (cardinality analysis), modeled
// critical-path cost against a deadline and retry-schedule feasibility
// (budget analysis), and tenant-flow taint across shared controller leases
// (taint analysis). The verdicts are falsifiable: tools/fedfuzz executes
// generated specs on every coupling and checks each observation against the
// bounds reported here.
#ifndef FEDFLOW_ANALYSIS_DATAFLOW_DATAFLOW_LINT_H_
#define FEDFLOW_ANALYSIS_DATAFLOW_DATAFLOW_LINT_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "analysis/dataflow/interval.h"
#include "analysis/diagnostic.h"
#include "appsys/registry.h"
#include "common/result.h"
#include "common/schema.h"
#include "common/vclock.h"
#include "federation/spec.h"
#include "sim/fault.h"
#include "sim/latency.h"

namespace fedflow::plan {
struct FedPlan;
}  // namespace fedflow::plan

namespace fedflow::analysis {

// Schema/type dataflow codes (FF400..FF409).
inline constexpr char kDfCastNeverSucceeds[] = "FF400";     // error
inline constexpr char kDfCastValueDependent[] = "FF401";    // warning
inline constexpr char kDfCastNarrowing[] = "FF402";         // warning
inline constexpr char kDfResultSchemaDrift[] = "FF403";     // error

// Cardinality dataflow codes (FF410..FF419).
inline constexpr char kDfUnboundedInvocations[] = "FF410";  // warning
inline constexpr char kDfInvocationExplosion[] = "FF411";   // error
inline constexpr char kDfScalarOfMultiRow[] = "FF412";      // error
inline constexpr char kDfUnboundedLoopUnion[] = "FF413";    // error

// Virtual-time budget codes (FF420..FF429).
inline constexpr char kDfDeadlineInfeasible[] = "FF420";    // error
inline constexpr char kDfRetryScheduleInfeasible[] = "FF421";  // error
inline constexpr char kDfColdStartOverDeadline[] = "FF422";    // warning

// Tenant-flow taint codes (FF430..FF439).
inline constexpr char kDfSharedLeaseFlow[] = "FF430";       // warning
inline constexpr char kDfStageOverTenantQuota[] = "FF431";  // error

/// Deployment facts the analyses judge the spec against. Defaults reproduce
/// the paper's single-controller, deadline-free deployment, under which
/// every budget and taint check is vacuously satisfied.
struct DataflowOptions {
  /// Modeled per-call deadline for the FF42x budget checks; 0 disables them.
  VDuration deadline_us = 0;
  /// The deployment's coupling-level retry policy (FF421).
  sim::RetryPolicy retry;
  /// Controller-pool sizing (FF430/FF431).
  std::size_t pool_max_size = 1;
  std::size_t per_tenant_quota = 0;
  /// Whether registration requests the parallelize pass (FF431 compares the
  /// parallel stage width against the tenant quota).
  bool parallelize = false;
  /// Concrete loop-iteration count, when the caller knows the argument the
  /// loop's count parameter will be bound to (the fuzzer's oracle mode).
  /// Absent = the static [1, inf) iteration interval.
  std::optional<std::int64_t> concrete_loop_count;
  /// Whether the deployment routes mutating calls through the saga
  /// coordinator's idempotency ledger. The integration server sets it; with
  /// retries enabled but no coordination, FF453 rejects write-path specs
  /// (a retried mutating call would apply twice).
  bool saga_coordination = false;
};

/// Interval facts about one plan call node.
struct NodeCardinality {
  /// Rows one invocation of the local function may produce (its declared
  /// row contract).
  dataflow::Interval rows;
  /// Invocations of the node per federated call, per lowering. The WfMS
  /// process runs every activity once per loop iteration; the nest-loop
  /// lateral lowerings (SQL and Java I-UDTF) invoke a position once per row
  /// of the preceding lateral product.
  dataflow::Interval invocations_wfms;
  dataflow::Interval invocations_udtf;
  /// Unbounded row sources among the node's preceding lateral positions
  /// (the FF410/FF411 explosion degree).
  int unbounded_factors = 0;
};

/// Everything the dataflow pass proved about one spec. The fuzzer checks
/// every runtime observation against these bounds.
struct DataflowResult {
  std::vector<Diagnostic> diagnostics;

  /// Inferred federated result schema (output casts applied to inferred
  /// source types). FF403 fires when this disagrees with the compiled
  /// plan's result schema.
  Schema inferred_result_schema;

  /// Per call node, indexed like FedPlan::calls.
  std::vector<NodeCardinality> cards;
  /// Call ids matching `cards` (so reports need no plan access).
  std::vector<std::string> call_ids;

  /// Loop iterations folded into the invocation intervals ([1, 1] for
  /// loop-free specs).
  dataflow::Interval iterations;

  /// Federated result-row interval per lowering.
  dataflow::Interval result_rows_wfms;
  dataflow::Interval result_rows_udtf;

  /// Modeled hot-path elapsed time per lowering (one loop iteration).
  VDuration hot_wfms_us = 0;
  VDuration hot_udtf_us = 0;
};

/// Runs all four dataflow analyses over `spec` compiled against `systems`.
/// The spec must already be plannable (LintSpec clean of errors); a compile
/// failure surfaces as an error status, which registration treats like the
/// FF304 compile-failure path. `optimized` (optional) supplies the
/// already-optimized plan the deployment will run — the server's plan cache
/// passes it so the parallelize-mode taint pass does not recompile.
Result<DataflowResult> RunDataflow(const federation::FederatedFunctionSpec& spec,
                                   const appsys::AppSystemRegistry& systems,
                                   const sim::LatencyModel& model,
                                   const DataflowOptions& options = {},
                                   const plan::FedPlan* optimized = nullptr);

}  // namespace fedflow::analysis

#endif  // FEDFLOW_ANALYSIS_DATAFLOW_DATAFLOW_LINT_H_
