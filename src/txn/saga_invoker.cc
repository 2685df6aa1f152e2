#include "txn/saga_invoker.h"

#include <utility>

#include "common/codec.h"
#include "obs/trace.h"
#include "wfms/engine.h"

namespace fedflow::txn {

Result<wfms::InvokeResult> SagaInvoker::InvokeWrite(
    const SagaStep& step, const std::string& system,
    const std::string& function, const std::vector<Value>& args) {
  // The idempotency key is marshalled with the activity's input container;
  // its wire cost rides with the call either way.
  const std::string key = exec_->IdempotencyKey(step);
  ByteWriter key_bytes;
  key_bytes.PutString(key);
  const VDuration key_cost = model_->MarshalCost(key_bytes.size());

  // Retry of an already-applied write: the store recognizes the key and
  // replays the recorded acknowledgement. No program launch, no fault window.
  std::optional<Table> recorded = exec_->DedupLookup(step);
  if (recorded.has_value()) {
    wfms::InvokeResult result;
    result.output = std::move(*recorded);
    result.duration = model_->txn_dedup_us + key_cost;
    result.steps.Add(sim::steps::kSagaDedup, result.duration);
    return result;
  }

  FEDFLOW_ASSIGN_OR_RETURN(appsys::AppSystem * sys, systems_->Get(system));
  FEDFLOW_ASSIGN_OR_RETURN(appsys::AppSystem::CallResult call,
                           sys->Call(function, args));
  // The write is applied (and the store's data version bumped) from here on:
  // ledger + saga log first, THEN the fault consult — a fault now models the
  // lost acknowledgement, not a lost request.
  FEDFLOW_RETURN_NOT_OK(exec_->RecordApplied(step, call.table));
  sim::FaultInjector::Decision decision;
  if (faults_ != nullptr) decision = faults_->Consult(function);
  if (decision.fault != sim::FaultInjector::Fault::kNone) {
    return Status::Unavailable("saga: response of applied write " + function +
                               " lost in program activity");
  }
  wfms::InvokeResult result;
  result.output = std::move(call.table);
  result.duration = model_->wf_jvm_boot_activity_us + call.cost_us + key_cost +
                    decision.extra_latency_us;
  result.steps.Add(wfms::steps::kProcessActivities, result.duration);
  return result;
}

Result<wfms::InvokeResult> SagaInvoker::Invoke(
    const std::string& system, const std::string& function,
    const std::vector<Value>& args, const obs::TraceHandle& trace) {
  const SagaStep* step = exec_->WriteStepFor(system, function);
  if (step == nullptr) {
    Result<wfms::InvokeResult> result =
        inner_->Invoke(system, function, args, trace);
    if (result.ok()) {
      const std::string node = exec_->CaptureNodeFor(system, function);
      if (!node.empty()) exec_->RecordOutput(node, result->output);
    }
    return result;
  }
  if (!trace.active()) return InvokeWrite(*step, system, function, args);
  obs::Tracer* tracer = trace.tracer;
  obs::SpanId span = tracer->StartSpan("local:" + function, obs::Layer::kAppsys,
                                       trace.parent, trace.base_us);
  tracer->SetAttribute(span, "system", system);
  tracer->SetAttribute(span, "saga.step", step->node);
  Result<wfms::InvokeResult> result =
      InvokeWrite(*step, system, function, args);
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

}  // namespace fedflow::txn
