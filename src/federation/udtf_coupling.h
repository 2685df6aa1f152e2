// The enhanced SQL UDTF architecture (paper §2): every local function of
// every application system is exposed to the FDBS as an Access UDTF
// (A-UDTF); a federated function becomes an Integration UDTF (I-UDTF) whose
// body is ONE SQL statement referencing the A-UDTFs laterally. The I-UDTF SQL
// is generated from the FederatedFunctionSpec and then parsed and executed by
// our own FDBS — cyclic and general mappings are rejected at compile time,
// exactly the paper's expressiveness limit.
#ifndef FEDFLOW_FEDERATION_UDTF_COUPLING_H_
#define FEDFLOW_FEDERATION_UDTF_COUPLING_H_

#include <memory>
#include <string>
#include <vector>

#include "appsys/registry.h"
#include "fdbs/database.h"
#include "federation/spec.h"
#include "plan/optimizer.h"
#include "sim/fault.h"
#include "sim/latency.h"

namespace fedflow::federation {

/// What distinguishes one kind of I-UDTF from another: its span prefix and
/// its modeled start/finish steps (costs are read from the latency model at
/// call time). The warm-up surcharge and the statement-level retry are the
/// same for every kind.
struct IUdtfSteps {
  const char* span_prefix;
  const char* start_step;
  VDuration sim::LatencyModel::*start_us;
  const char* finish_step;
  VDuration sim::LatencyModel::*finish_us;
};

/// The SQL-bodied I-UDTF of the enhanced SQL UDTF architecture.
inline constexpr IUdtfSteps kSqlIUdtfSteps{
    "iudtf:", sim::steps::kUdtfStartI, &sim::LatencyModel::udtf_start_i_us,
    sim::steps::kUdtfFinishI, &sim::LatencyModel::udtf_finish_i_us};

/// The procedural I-UDTF of the enhanced Java UDTF architecture.
inline constexpr IUdtfSteps kJavaIUdtfSteps{
    "java-iudtf:", sim::steps::kJavaStartI,
    &sim::LatencyModel::java_iudtf_start_us, sim::steps::kJavaFinishI,
    &sim::LatencyModel::java_iudtf_finish_us};

/// An Integration UDTF: decorates the federated function's body (a
/// SQL-bodied function, or the Java coupling's procedural interpreter) with
/// the flow's warm-up surcharge, the I-UDTF start/finish steps and the
/// statement-level retry. Because an I-UDTF keeps no state between attempts,
/// a retriable failure restarts the WHOLE body — every A-UDTF it references
/// runs (and charges) again; saga write steps survive the restart through
/// the dedup ledger.
class InstrumentedIUdtf : public fdbs::TableFunction {
 public:
  InstrumentedIUdtf(std::shared_ptr<fdbs::TableFunction> body,
                    const sim::LatencyModel* model,
                    const sim::RetryPolicy* retry, const IUdtfSteps& steps)
      : body_(std::move(body)), model_(model), retry_(retry), steps_(steps) {}

  const std::string& name() const override { return body_->name(); }
  const std::vector<Column>& params() const override {
    return body_->params();
  }
  const Schema& result_schema() const override {
    return body_->result_schema();
  }

  /// Requires a flow (RequireFlow); the body's stream passes through.
  Result<RowSourcePtr> InvokeStream(const std::vector<Value>& args,
                                    fdbs::ExecContext& ctx,
                                    size_t batch_size) override;

 private:
  std::shared_ptr<fdbs::TableFunction> body_;
  const sim::LatencyModel* model_;
  const sim::RetryPolicy* retry_;
  IUdtfSteps steps_;
};

/// Wires the UDTF architecture into an FDBS.
class UdtfCoupling {
 public:
  /// `faults` (optional) makes the A-UDTF RMI channels unreliable; `retry`
  /// (optional) is the statement-level retry policy of the I-UDTFs (see
  /// InstrumentedIUdtf; contrast WfmsCoupling, which resumes from the
  /// engine's checkpoint). The controller a call dispatches through and the
  /// ledger it warms come from the call's flow, never from the coupling.
  UdtfCoupling(fdbs::Database* db, const appsys::AppSystemRegistry* systems,
               const sim::LatencyModel* model,
               sim::FaultInjector* faults = nullptr,
               const sim::RetryPolicy* retry = nullptr)
      : db_(db),
        systems_(systems),
        model_(model),
        faults_(faults),
        retry_(retry) {}

  /// Registers one A-UDTF per local function of every application system
  /// (this alone is the paper's "simple UDTF architecture": applications can
  /// reference the A-UDTFs directly and do the integration themselves).
  Status RegisterAccessUdtfs();

  /// Generates the CREATE FUNCTION ... LANGUAGE SQL RETURN SELECT text for a
  /// spec by building the federated plan (plan/fed_plan.h) and rendering its
  /// SQL lowering. Unsupported for cyclic/looping mappings (SQL has no
  /// loop). With default (passthrough) options the text is identical to the
  /// pre-IR compiler; optimizer passes are opt-in per statement.
  Result<std::string> CompileIUdtfSql(const FederatedFunctionSpec& spec,
                                      const plan::PlanOptions& options = {}) const;

  /// Renders the I-UDTF SQL from an already-built plan (the server's plan
  /// cache compiles once at registration and hands the plan to every
  /// consumer). `fed_plan` must be the compiled plan of `spec`.
  Result<std::string> CompileIUdtfSql(const FederatedFunctionSpec& spec,
                                      const plan::FedPlan& fed_plan) const;

  /// Compiles, parses and registers the I-UDTF (instrumented with I-UDTF
  /// start/finish and warm-up costs).
  Status RegisterFederatedFunction(const FederatedFunctionSpec& spec,
                                   const plan::PlanOptions& options = {});

  /// Registers the I-UDTF from an already-built plan without recompiling.
  Status RegisterFederatedFunction(const FederatedFunctionSpec& spec,
                                   const plan::FedPlan& fed_plan);

  /// Generates CREATE PROCEDURE ... BEGIN ... END text for a spec — PSM
  /// stored procedures DO support control structures, so this works for the
  /// cyclic case too. But the result is CALL-only: it cannot be referenced
  /// in a FROM clause and thus does not compose with other federated
  /// functions or tables (the paper's §2/§3 point).
  Result<std::string> CompilePsmSql(const FederatedFunctionSpec& spec,
                                    const plan::PlanOptions& options = {}) const;

  /// Renders the PSM procedure from an already-built plan.
  Result<std::string> CompilePsmSql(const FederatedFunctionSpec& spec,
                                    const plan::FedPlan& fed_plan) const;

  /// Compiles and registers the PSM procedure in the FDBS.
  Status RegisterPsmProcedure(const FederatedFunctionSpec& spec);

 private:
  fdbs::Database* db_;
  const appsys::AppSystemRegistry* systems_;
  const sim::LatencyModel* model_;
  sim::FaultInjector* faults_;
  const sim::RetryPolicy* retry_;
};

}  // namespace fedflow::federation

#endif  // FEDFLOW_FEDERATION_UDTF_COUPLING_H_
