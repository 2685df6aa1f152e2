// Saga-aware ProgramInvoker: the write-path interception for the WfMS
// coupling. Wraps the coupling's regular invoker; read activities pass
// through untouched, mutating saga steps get exactly-once semantics:
//
//   * The idempotency key travels with the activity's input container
//     (its marshalling cost is charged with the call).
//   * A duplicate key is served from the store's dedup ledger at
//     txn_dedup_us — the effect is NOT re-applied, and no fault is consulted
//     (the ledger answers before the unreliable program launch).
//   * A first apply runs the local function, records the acknowledgement in
//     the ledger, and only THEN consults the fault injector: a fault at that
//     point models the apply-then-crash window — the effect landed, the
//     response was lost, and only the ledger makes the retry safe.
#ifndef FEDFLOW_TXN_SAGA_INVOKER_H_
#define FEDFLOW_TXN_SAGA_INVOKER_H_

#include <string>
#include <vector>

#include "appsys/registry.h"
#include "sim/fault.h"
#include "sim/latency.h"
#include "txn/saga.h"
#include "wfms/program.h"

namespace fedflow::txn {

class SagaInvoker : public wfms::ProgramInvoker {
 public:
  /// `inner` handles non-write activities (and stays the owner of their
  /// fault semantics); `faults` may be null. All pointers are borrowed and
  /// must outlive the invoker (it lives for one engine run).
  SagaInvoker(wfms::ProgramInvoker* inner,
              const appsys::AppSystemRegistry* systems,
              const sim::LatencyModel* model, sim::FaultInjector* faults,
              SagaExec* exec)
      : inner_(inner),
        systems_(systems),
        model_(model),
        faults_(faults),
        exec_(exec) {}

  Result<wfms::InvokeResult> Invoke(const std::string& system,
                                    const std::string& function,
                                    const std::vector<Value>& args,
                                    const obs::TraceHandle& trace) override;

 private:
  Result<wfms::InvokeResult> InvokeWrite(const SagaStep& step,
                                         const std::string& system,
                                         const std::string& function,
                                         const std::vector<Value>& args);

  wfms::ProgramInvoker* inner_;
  const appsys::AppSystemRegistry* systems_;
  const sim::LatencyModel* model_;
  sim::FaultInjector* faults_;
  SagaExec* exec_;
};

}  // namespace fedflow::txn

#endif  // FEDFLOW_TXN_SAGA_INVOKER_H_
