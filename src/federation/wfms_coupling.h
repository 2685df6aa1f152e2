// The WfMS architecture (paper §2): a federated function is a workflow
// process. The FDBS reaches it through one SQL/MED-style wrapper UDTF that
// starts the process in the workflow engine; the engine calls the local
// functions (each activity boots its own Java program, the dominant cost),
// handles containers, parallel forks and loops.
#ifndef FEDFLOW_FEDERATION_WFMS_COUPLING_H_
#define FEDFLOW_FEDERATION_WFMS_COUPLING_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "appsys/registry.h"
#include "fdbs/database.h"
#include "federation/med_wrapper.h"
#include "federation/spec.h"
#include "plan/optimizer.h"
#include "sim/fault.h"
#include "sim/latency.h"
#include "wfms/engine.h"

namespace fedflow::federation {

/// ProgramInvoker used by the engine under this coupling: every program
/// activity boots a fresh Java program (JVM boot cost) and then performs the
/// local function call in the application system.
class WfmsProgramInvoker : public wfms::ProgramInvoker {
 public:
  /// `faults` (optional) is consulted per local-function invocation — WfMS
  /// program activities call the application systems directly (no RMI), so
  /// the invoker is where their attempts can fail.
  WfmsProgramInvoker(const appsys::AppSystemRegistry* systems,
                     const sim::LatencyModel* model,
                     sim::FaultInjector* faults = nullptr)
      : systems_(systems), model_(model), faults_(faults) {}

  Result<wfms::InvokeResult> Invoke(const std::string& system,
                                    const std::string& function,
                                    const std::vector<Value>& args) override;

  /// Traced variant: hangs a `local:<function>` appsys-layer span under the
  /// activity span carried by `trace`, stamped with the invocation's virtual
  /// duration; a failed attempt records the failure status on the span.
  Result<wfms::InvokeResult> InvokeTraced(
      const std::string& system, const std::string& function,
      const std::vector<Value>& args, const obs::TraceHandle& trace) override;

 private:
  const appsys::AppSystemRegistry* systems_;
  const sim::LatencyModel* model_;
  sim::FaultInjector* faults_;
};

/// A compiled spec: the process plus the helpers it needs registered.
struct CompiledProcess {
  wfms::ProcessDefinition process;
  std::vector<std::pair<std::string, wfms::HelperFn>> helpers;
};

/// The SQL/MED wrapper bridging the FDBS to the workflow engine.
class WfmsWrapper : public ForeignFunctionWrapper {
 public:
  /// `faults` feeds both the wrapper's RMI channel (federated-function
  /// level) and the program invoker (local-function level); `retry` is
  /// surfaced through retry_policy() so the SQL/MED adapter drives the retry
  /// loop. Each ExecuteStream call is ONE attempt; between attempts the
  /// wrapper keeps the engine's InstanceCheckpoint, so a retried call resumes
  /// the failed process instance instead of restarting it — the paper's
  /// forward-recovery argument for the WfMS coupling. The controller that
  /// must be running and the ledger the call warms come from the call's flow.
  WfmsWrapper(wfms::Engine* engine, const appsys::AppSystemRegistry* systems,
              const sim::LatencyModel* model,
              sim::FaultInjector* faults = nullptr,
              const sim::RetryPolicy* retry = nullptr)
      : engine_(engine),
        systems_(systems),
        model_(model),
        faults_(faults),
        retry_(retry),
        invoker_(systems, model, faults) {}

  std::string Name() const override { return "wfms"; }
  std::vector<ForeignFunction> Functions() const override {
    return functions_;
  }

  /// Adds a federated function served by this wrapper (its process must be
  /// registered with the engine under the same name).
  void AddFunction(ForeignFunction fn) {
    functions_.push_back(std::move(fn));
  }

  /// Runs the process behind one RMI call. The process still runs to
  /// completion inside the engine (a workflow instance is atomic), but the
  /// RMI return leg streams the result rows back in chunks, charging wire
  /// cost per pulled batch. Requires a flow (RequireFlow) whose controller
  /// is started.
  Result<RowSourcePtr> ExecuteStream(const std::string& function,
                                     const std::vector<Value>& args,
                                     fdbs::ExecContext& ctx,
                                     size_t batch_size) override;

  wfms::ProgramInvoker* invoker() { return &invoker_; }

  const sim::RetryPolicy* retry_policy() const override { return retry_; }

  /// The pending recovery checkpoint of `function` (null when its last run
  /// succeeded or it never ran). For tests and audit inspection.
  const wfms::InstanceCheckpoint* checkpoint(const std::string& function) const;

  /// Drops the pending recovery checkpoint of `function` (no-op when none).
  /// The saga coordinator calls this after backward recovery: the checkpoint
  /// memoizes completed activities whose effects the abort just compensated,
  /// so a later resume from it would skip re-applying undone writes.
  void ClearCheckpoint(const std::string& function);

 private:
  /// Cross-attempt recovery state of one federated function.
  struct PendingRecovery {
    wfms::InstanceCheckpoint ckpt;
    /// Engine-instance virtual time already advanced on the caller's clock
    /// by earlier (failed) attempts, so a later attempt only adds the delta.
    VTime engine_charged_us = 0;
    /// Marshalled arguments of the attempt that created the checkpoint; a
    /// call with different arguments discards the stale instance.
    std::vector<uint8_t> args_key;
  };

  /// Takes the pending recovery entry of `function` out of the map (empty
  /// when none, reset when the arguments differ from the checkpointed call).
  /// The attempt operates on the returned copy; StoreRecovery puts it back
  /// on failure, a successful attempt simply drops it — sequentially
  /// identical to the old in-map reference, and safe for concurrent flows.
  /// Only a pending checkpoint makes it marshal `args` for the comparison.
  PendingRecovery TakeRecovery(const std::string& function,
                               const std::vector<Value>& args);
  /// Puts `rec` back after a failed attempt, keyed by that attempt's `args`.
  void StoreRecovery(const std::string& function,
                     const std::vector<Value>& args, PendingRecovery rec);

  wfms::Engine* engine_;
  const appsys::AppSystemRegistry* systems_;
  const sim::LatencyModel* model_;
  sim::FaultInjector* faults_;
  const sim::RetryPolicy* retry_;
  WfmsProgramInvoker invoker_;
  std::vector<ForeignFunction> functions_;
  mutable std::mutex recovery_mu_;
  std::map<std::string, PendingRecovery> recovery_;
};

/// Wires the WfMS architecture into an FDBS + engine pair.
class WfmsCoupling {
 public:
  WfmsCoupling(fdbs::Database* db, wfms::Engine* engine,
               const appsys::AppSystemRegistry* systems,
               const sim::LatencyModel* model,
               sim::FaultInjector* faults = nullptr,
               const sim::RetryPolicy* retry = nullptr);

  /// Compiles a spec into a process definition plus required helpers by
  /// building the federated plan (plan/fed_plan.h) and lowering it. Handles
  /// every mapping case including loops (the cyclic case). With default
  /// (passthrough) options the result is identical to the pre-IR compiler;
  /// optimizer passes are opt-in per statement, mirroring
  /// ExecContext::predicate_pushdown.
  Result<CompiledProcess> CompileProcess(
      const FederatedFunctionSpec& spec,
      const plan::PlanOptions& options = {}) const;

  /// Lowers an already-built plan (the server's plan cache compiles once at
  /// registration and hands the plan to every consumer) to the process model.
  Result<CompiledProcess> CompileProcess(const FederatedFunctionSpec& spec,
                                         const plan::FedPlan& fed_plan) const;

  /// Compiles the spec, registers helpers and process with the engine, and
  /// registers the wrapper UDTF with the FDBS.
  Status RegisterFederatedFunction(const FederatedFunctionSpec& spec,
                                   const plan::PlanOptions& options = {});

  /// Registers from an already-built plan without recompiling.
  Status RegisterFederatedFunction(const FederatedFunctionSpec& spec,
                                   const plan::FedPlan& fed_plan);

  /// The wrapper instance (shared with the FDBS catalog).
  const std::shared_ptr<WfmsWrapper>& wrapper() const { return wrapper_; }

 private:
  fdbs::Database* db_;
  wfms::Engine* engine_;
  const appsys::AppSystemRegistry* systems_;
  const sim::LatencyModel* model_;
  std::shared_ptr<WfmsWrapper> wrapper_;
};

}  // namespace fedflow::federation

#endif  // FEDFLOW_FEDERATION_WFMS_COUPLING_H_
