#include "analysis/code_registry.h"

namespace fedflow::analysis {

namespace {

constexpr Severity kErr = Severity::kError;
constexpr Severity kWarn = Severity::kWarning;

std::vector<CodeInfo> BuildRegistry() {
  return {
      // Spec errors (FF001..FF049).
      {"FF001", kErr, "spec-no-name", "spec has no name"},
      {"FF002", kErr, "spec-no-calls", "spec declares no call nodes"},
      {"FF003", kErr, "spec-duplicate-call-id", "duplicate call node id"},
      {"FF004", kErr, "spec-call-incomplete", "call node misses system or function"},
      {"FF005", kErr, "spec-unknown-system", "call references an unregistered application system"},
      {"FF006", kErr, "spec-unknown-function", "call references a function the system does not export"},
      {"FF007", kErr, "spec-arity-mismatch", "call argument count differs from the local signature"},
      {"FF008", kErr, "spec-dangling-node", "argument references an undeclared call node"},
      {"FF009", kErr, "spec-unknown-node-column", "argument references a column the node does not produce"},
      {"FF010", kErr, "spec-self-reference", "call node consumes its own output"},
      {"FF011", kErr, "spec-cycle-without-exit", "node dependencies form a cycle"},
      {"FF012", kErr, "spec-unknown-param", "argument references an undeclared federated parameter"},
      {"FF013", kErr, "spec-iteration-outside-loop", "ITERATION used without an enclosing loop"},
      {"FF014", kErr, "spec-bad-loop-param", "loop count parameter missing or undeclared"},
      {"FF015", kErr, "spec-no-outputs", "spec declares no outputs"},
      {"FF016", kErr, "spec-output-unnamed", "output column has no name"},
      {"FF017", kErr, "spec-output-unknown-node", "output references an undeclared call node"},
      {"FF018", kErr, "spec-output-unknown-column", "output references a column the node does not produce"},
      {"FF019", kErr, "spec-join-unknown-node", "join references an undeclared call node"},
      {"FF020", kErr, "spec-join-unknown-column", "join references a column the node does not produce"},
      {"FF021", kErr, "spec-arg-type-mismatch", "argument type cannot satisfy the local parameter"},
      {"FF022", kErr, "spec-join-type-mismatch", "join compares columns of different types"},
      {"FF023", kErr, "spec-duplicate-output", "duplicate federated output name"},
      // Spec warnings (FF050..FF069).
      {"FF050", kWarn, "spec-unused-param", "declared federated parameter is never consumed"},
      {"FF051", kWarn, "spec-dead-node", "call node feeds neither outputs nor other nodes"},
      {"FF052", kWarn, "spec-lossy-coercion", "argument coercion may lose precision"},
      {"FF053", kWarn, "spec-loop-param-not-integer", "loop count parameter is not an integer"},
      // Classification consistency (FF070..FF099).
      {"FF070", kErr, "spec-classification-inconsistent", "spec-level and plan-level classifiers disagree"},
      // Plan consistency errors (FF300..FF309).
      {"FF300", kErr, "plan-call-set-mismatch", "lowering calls a different set of local functions than the plan"},
      {"FF301", kErr, "plan-ordering-violation", "lowering violates the plan's dependency order"},
      {"FF302", kErr, "plan-classification-drift", "plan and lowering disagree on the mapping class"},
      {"FF303", kErr, "plan-predicate-misplaced", "sunk predicate evaluated at the wrong node"},
      {"FF304", kErr, "plan-compile-failed", "spec does not compile into a federated plan"},
      // Plan deployment warnings (FF310..FF349).
      {"FF310", kWarn, "plan-pool-serialized", "parallel plan over a single-controller pool serializes"},
      // Dataflow: schema/type inference (FF400..FF409).
      {"FF400", kErr, "df-cast-never-succeeds", "output cast can never succeed for any value"},
      {"FF401", kWarn, "df-cast-value-dependent", "output cast succeeds only for some runtime values"},
      {"FF402", kWarn, "df-cast-narrowing", "output cast narrows and may lose precision"},
      {"FF403", kErr, "df-result-schema-drift", "inferred result schema differs from the compiled plan"},
      // Dataflow: interval cardinality (FF410..FF419).
      {"FF410", kWarn, "df-unbounded-invocations", "an unbounded factor makes invocation counts unbounded"},
      {"FF411", kErr, "df-invocation-explosion", "two or more unbounded factors multiply invocation counts"},
      {"FF412", kErr, "df-scalar-of-multi-row", "scalar argument consumes a node that can return many rows"},
      {"FF413", kErr, "df-unbounded-loop-union", "union-all loop accumulates an unbounded body"},
      // Dataflow: virtual-time budget (FF420..FF429).
      {"FF420", kErr, "df-deadline-infeasible", "hot critical path exceeds the modeled deadline"},
      {"FF421", kErr, "df-retry-schedule-infeasible", "retry backoff schedule exceeds its own deadline"},
      {"FF422", kWarn, "df-cold-start-over-deadline", "cold-start worst case exceeds the modeled deadline"},
      // Dataflow: tenant-flow taint (FF430..FF449).
      {"FF430", kWarn, "df-shared-lease-flow", "results flow across unquotaed shared-pool leases"},
      {"FF431", kErr, "df-stage-over-tenant-quota", "parallel stage is wider than the per-tenant quota"},
      // Saga coordination (FF450..FF459).
      {"FF450", kErr, "saga-missing-compensation", "mutating call declares no compensation"},
      {"FF451", kErr, "saga-compensation-mismatch", "compensation is unknown, read-only, or signature-incompatible"},
      {"FF452", kErr, "saga-write-in-loop", "mutating call inside a do-until loop defeats idempotency keys"},
      {"FF453", kErr, "saga-retry-without-ledger", "retrying deployment lacks saga idempotency coordination"},
      {"FF454", kErr, "saga-ambiguous-step", "two saga steps resolve to the same (system, function)"},
      {"FF455", kErr, "saga-capture-unordered", "compensation argument reads a node not ordered before its write"},
  };
}

}  // namespace

const std::vector<CodeInfo>& AllDiagnosticCodes() {
  static const std::vector<CodeInfo>* kCodes =
      new std::vector<CodeInfo>(BuildRegistry());
  return *kCodes;
}

const std::vector<CodeBand>& DiagnosticCodeBands() {
  static const std::vector<CodeBand>* kBands = new std::vector<CodeBand>{
      {1, 99, "spec"},
      // Numbers of the deleted workflow and I-UDTF SQL linters; never reused.
      {100, 299, "retired"},
      {300, 349, "plan"},
      {400, 449, "dataflow"},
      {450, 459, "saga"},
  };
  return *kBands;
}

const CodeInfo* FindDiagnosticCode(const std::string& code) {
  for (const CodeInfo& info : AllDiagnosticCodes()) {
    if (info.code == code) return &info;
  }
  return nullptr;
}

}  // namespace fedflow::analysis
