#include "federation/wfms_coupling.h"

#include "common/codec.h"
#include "common/strings.h"
#include "federation/binding.h"
#include "federation/controller.h"
#include "obs/trace.h"
#include "plan/lower_wfms.h"
#include "sim/flow_state.h"
#include "sim/rmi.h"
#include "sim/system_state.h"
#include "txn/saga_invoker.h"

namespace fedflow::federation {

Result<wfms::InvokeResult> WfmsProgramInvoker::Invoke(
    const std::string& system, const std::string& function,
    const std::vector<Value>& args) {
  // Local calls bypass RMI under this architecture, so injected faults hit
  // here: a faulted attempt fails when the activity's program is launched.
  sim::FaultInjector::Decision decision;
  if (faults_ != nullptr) decision = faults_->Consult(function);
  if (decision.fault == sim::FaultInjector::Fault::kTransient) {
    return Status::Unavailable("wfms: transient failure in program activity " +
                               function);
  }
  if (decision.fault == sim::FaultInjector::Fault::kPermanent) {
    return Status::Unavailable("wfms: " + function +
                               " is down (permanent outage)");
  }
  FEDFLOW_ASSIGN_OR_RETURN(appsys::AppSystem * sys, systems_->Get(system));
  FEDFLOW_ASSIGN_OR_RETURN(appsys::AppSystem::CallResult call,
                           sys->Call(function, args));
  wfms::InvokeResult result;
  result.output = std::move(call.table);
  // The paper's dominant WfMS cost: each activity starts a fresh Java
  // program (JVM boot) before doing its actual work.
  result.duration = model_->wf_jvm_boot_activity_us + call.cost_us +
                    decision.extra_latency_us;
  result.steps.Add(wfms::steps::kProcessActivities, result.duration);
  return result;
}

Result<wfms::InvokeResult> WfmsProgramInvoker::InvokeTraced(
    const std::string& system, const std::string& function,
    const std::vector<Value>& args, const obs::TraceHandle& trace) {
  if (!trace.active()) return Invoke(system, function, args);
  obs::Tracer* tracer = trace.tracer;
  obs::SpanId span = tracer->StartSpan("local:" + function, obs::Layer::kAppsys,
                                       trace.parent, trace.base_us);
  tracer->SetAttribute(span, "system", system);
  Result<wfms::InvokeResult> result = Invoke(system, function, args);
  if (!result.ok()) {
    tracer->SetStatus(span, result.status());
    tracer->AddEvent(span, trace.base_us, "invoke failed",
                     result.status().message());
    tracer->EndSpan(span, trace.base_us);
    return result;
  }
  tracer->EndSpan(span, trace.base_us + result->duration);
  return result;
}

const wfms::InstanceCheckpoint* WfmsWrapper::checkpoint(
    const std::string& function) const {
  std::lock_guard<std::mutex> lock(recovery_mu_);
  auto it = recovery_.find(ToUpper(function));
  if (it == recovery_.end() || !it->second.ckpt.valid) return nullptr;
  return &it->second.ckpt;
}

void WfmsWrapper::ClearCheckpoint(const std::string& function) {
  std::lock_guard<std::mutex> lock(recovery_mu_);
  recovery_.erase(ToUpper(function));
}

namespace {

std::vector<uint8_t> ArgsKey(const std::vector<Value>& args) {
  ByteWriter writer;
  writer.PutRow(args);
  return writer.buffer();
}

}  // namespace

WfmsWrapper::PendingRecovery WfmsWrapper::TakeRecovery(
    const std::string& function, const std::vector<Value>& args) {
  PendingRecovery rec;
  {
    std::lock_guard<std::mutex> lock(recovery_mu_);
    if (recovery_.empty()) return rec;
    auto it = recovery_.find(ToUpper(function));
    if (it == recovery_.end()) return rec;
    rec = std::move(it->second);
    recovery_.erase(it);
  }
  // A checkpoint only carries across attempts of the same call; different
  // arguments mean a new statement, so a stale instance is discarded.
  if (rec.ckpt.valid && rec.args_key != ArgsKey(args)) rec = PendingRecovery{};
  return rec;
}

void WfmsWrapper::StoreRecovery(const std::string& function,
                                const std::vector<Value>& args,
                                PendingRecovery rec) {
  rec.args_key = ArgsKey(args);
  std::lock_guard<std::mutex> lock(recovery_mu_);
  recovery_[ToUpper(function)] = std::move(rec);
}

Result<RowSourcePtr> WfmsWrapper::ExecuteStream(const std::string& function,
                                                const std::vector<Value>& args,
                                                fdbs::ExecContext& ctx,
                                                size_t batch_size) {
  FEDFLOW_ASSIGN_OR_RETURN(sim::FlowState * flow, RequireFlow(ctx, function));
  if (!flow->controller->started()) {
    return Status::ExecutionError(
        "controller not started; boot the integration environment first");
  }
  SimClock* clock = ctx.clock;
  obs::SpanScope span(ctx.trace, "wrapper:", function, obs::Layer::kCoupling);
  span.SetAttribute("architecture", "wfms");
  sim::ChargeWarmup(*model_, *flow->warmth, function, clock);
  if (clock != nullptr) {
    clock->Charge(sim::steps::kWfStartUdtf, model_->wf_udtf_start_us);
    clock->Charge(sim::steps::kWfProcessUdtf,
                  model_->wf_udtf_process_us + model_->wf_controller_process_us);
  }

  // One RMI call ships the request to the workflow engine; the process runs
  // behind it, recoverably: the engine checkpoints completed activities into
  // the wrapper's per-function recovery slot, so a retried attempt resumes
  // the failed instance from the last completed activity.
  PendingRecovery rec = TakeRecovery(function, args);
  const bool resuming = rec.ckpt.valid;
  if (resuming) span.SetAttribute("resumed", "true");
  sim::RmiChannel rmi(model_, faults_);
  sim::RmiChannel::CallCosts costs;
  wfms::ProcessResult process_result;
  bool engine_ran = false;
  obs::TraceSession* trace = ctx.trace;
  // Write-path federated function: route the engine's program activities
  // through the saga invoker, which dedups applied writes by idempotency key
  // and moves the fault consultation after the apply (a lost-response fault
  // must leave the write committed — that is what the ledger compensates).
  txn::SagaExec* saga = flow->saga;
  txn::SagaInvoker saga_invoker(&invoker_, systems_, model_, faults_, saga);
  wfms::ProgramInvoker* invoker =
      saga != nullptr ? static_cast<wfms::ProgramInvoker*>(&saga_invoker)
                      : &invoker_;
  auto handler = [this, invoker, &process_result, &rec, &engine_ran, trace,
                  clock](const std::string& fn,
                         const std::vector<Value>& remote_args)
      -> Result<Table> {
    engine_ran = true;
    // The serve-side RMI span is current here; the process span hangs under
    // it, with the engine's instance-relative token times mapped onto the
    // session timeline from the current clock reading.
    obs::TraceHandle engine_trace;
    if (trace != nullptr && trace->active()) {
      engine_trace = obs::TraceHandle{trace->tracer(), trace->current(),
                                      clock != nullptr ? clock->now() : 0};
    }
    Result<wfms::ProcessResult> run = engine_->RunRecoverable(
        fn, remote_args, invoker, &rec.ckpt, engine_trace);
    if (!run.ok()) return run.status();
    process_result = std::move(*run);
    return std::move(process_result.output);
  };
  sim::RmiChannel::ChunkCostFn on_chunk;
  if (clock != nullptr) {
    on_chunk = [clock](VDuration cost) {
      clock->Charge(sim::steps::kWfRmiReturn, cost);
    };
  }
  Result<RowSourcePtr> streamed =
      rmi.InvokeStreaming(function, args, handler, batch_size, &costs,
                          std::move(on_chunk), trace);
  if (!streamed.ok()) {
    span.SetStatus(streamed.status());
    // Charge what the failed attempt really consumed: the RMI legs always
    // (request plus error response), and — when the engine ran and left a
    // checkpoint — the process start plus the attempt's partial work, with
    // the clock advanced only by the newly covered instance time.
    if (clock != nullptr) {
      clock->Charge(sim::steps::kWfRmiCall, costs.call_us);
      if (engine_ran) {
        if (!resuming) {
          clock->Charge(sim::steps::kWfProcessStart,
                        model_->wf_process_start_us);
        }
        if (rec.ckpt.valid) {
          for (const auto& [step, dur] : rec.ckpt.attempt_work.entries()) {
            clock->ChargeWork(step, dur);
          }
          VDuration delta = rec.ckpt.failed_at_us - rec.engine_charged_us;
          if (delta > 0) {
            clock->AdvanceTo(clock->now() + delta);
            rec.engine_charged_us = rec.ckpt.failed_at_us;
          }
        }
      }
      clock->Charge(sim::steps::kWfRmiReturn, costs.return_us);
    }
    StoreRecovery(function, args, std::move(rec));
    return streamed.status();
  }
  if (clock != nullptr) {
    clock->Charge(sim::steps::kWfRmiCall, costs.call_us);
    if (!resuming) {
      clock->Charge(sim::steps::kWfProcessStart, model_->wf_process_start_us);
    }
    // The engine reports per-step work and a parallel-aware elapsed time:
    // merge the work into the breakdown and advance the clock by the
    // instance's end-to-end time (on a resumed run: the part not yet
    // advanced by failed attempts — the breakdown then holds new work only).
    for (const auto& [step, dur] : process_result.breakdown.entries()) {
      clock->ChargeWork(step, dur);
    }
    VDuration delta = process_result.elapsed_us - rec.engine_charged_us;
    if (delta > 0) clock->AdvanceTo(clock->now() + delta);
    clock->Charge(sim::steps::kWfController, model_->wf_controller_us);
    // Register the RMI-return step at its usual breakdown position; the
    // actual cost arrives per chunk as the stream is drained.
    clock->ChargeWork(sim::steps::kWfRmiReturn, 0);
    clock->Charge(sim::steps::kWfFinishUdtf, model_->wf_udtf_finish_us);
  }
  // Success: the recovery entry taken at the top is simply dropped.
  flow->warmth->MarkRun(function);
  return streamed;
}

WfmsCoupling::WfmsCoupling(fdbs::Database* db, wfms::Engine* engine,
                           const appsys::AppSystemRegistry* systems,
                           const sim::LatencyModel* model,
                           sim::FaultInjector* faults,
                           const sim::RetryPolicy* retry)
    : db_(db),
      engine_(engine),
      systems_(systems),
      model_(model),
      wrapper_(std::make_shared<WfmsWrapper>(engine, systems, model, faults,
                                             retry)) {}

Result<CompiledProcess> WfmsCoupling::CompileProcess(
    const FederatedFunctionSpec& spec,
    const plan::PlanOptions& options) const {
  // Compile + optimize once in the shared plan IR, then lower to the process
  // model (plan/lower_wfms.h). A passthrough plan lowers to the identical
  // ProcessDefinition the pre-IR compiler emitted.
  FEDFLOW_ASSIGN_OR_RETURN(plan::FedPlan fed_plan,
                           plan::BuildPlan(spec, *systems_, *model_, options));
  return CompileProcess(spec, fed_plan);
}

Result<CompiledProcess> WfmsCoupling::CompileProcess(
    const FederatedFunctionSpec& spec, const plan::FedPlan& fed_plan) const {
  (void)spec;  // identification only; the plan carries everything lowered
  FEDFLOW_ASSIGN_OR_RETURN(plan::LoweredProcess lowered,
                           plan::LowerToProcess(fed_plan));
  CompiledProcess compiled;
  compiled.process = std::move(lowered.process);
  compiled.helpers = std::move(lowered.helpers);
  return compiled;
}

Status WfmsCoupling::RegisterFederatedFunction(
    const FederatedFunctionSpec& spec, const plan::PlanOptions& options) {
  FEDFLOW_ASSIGN_OR_RETURN(plan::FedPlan fed_plan,
                           plan::BuildPlan(spec, *systems_, *model_, options));
  return RegisterFederatedFunction(spec, fed_plan);
}

Status WfmsCoupling::RegisterFederatedFunction(
    const FederatedFunctionSpec& spec, const plan::FedPlan& fed_plan) {
  FEDFLOW_ASSIGN_OR_RETURN(CompiledProcess compiled,
                           CompileProcess(spec, fed_plan));
  for (auto& [name, fn] : compiled.helpers) {
    FEDFLOW_RETURN_NOT_OK(engine_->RegisterHelper(name, std::move(fn)));
  }
  FEDFLOW_RETURN_NOT_OK(engine_->RegisterProcess(std::move(compiled.process)));

  ForeignFunctionWrapper::ForeignFunction descriptor;
  descriptor.name = spec.name;
  descriptor.params = spec.params;
  FEDFLOW_ASSIGN_OR_RETURN(descriptor.result_schema,
                           ResolveResultSchema(spec, *systems_));
  wrapper_->AddFunction(descriptor);
  return RegisterWrapperFunction(db_, wrapper_, std::move(descriptor));
}

}  // namespace fedflow::federation
