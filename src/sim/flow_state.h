// Per-invocation flow state. Every federated statement runs as one *flow*: a
// tenant plus what the flow leased for its duration — a controller from the
// ControllerPool, that controller's warmth ledger and warm-pool slot — and,
// for a write-path function, its saga execution. The flow's virtual clock
// and trace session are not part of it: they live in fdbs::ExecContext, the
// statement context that points at this struct. The shared warm-resource
// part lives in resource_pools.h (WarmPool).
//
// Every coupling invocation requires a flow: a call that reaches a coupling
// without one fails with a Status (federation::RequireFlow).
//
// Layering note: the flow carries a federation::Controller* strictly as an
// opaque lease handle (forward-declared, never dereferenced below the
// federation layer), so the sim layer needs no link dependency on it.
#ifndef FEDFLOW_SIM_FLOW_STATE_H_
#define FEDFLOW_SIM_FLOW_STATE_H_

#include <cstdint>
#include <string>

#include "sim/system_state.h"

namespace fedflow::federation {
class Controller;
}  // namespace fedflow::federation

namespace fedflow::txn {
class SagaExec;
}  // namespace fedflow::txn

namespace fedflow::sim {

/// Everything one in-flight federated invocation is accounted against or
/// has leased. Couplings reach it through fdbs::ExecContext::flow.
struct FlowState {
  /// Tenant the invocation is accounted against ("default" when the caller
  /// is tenant-agnostic). Result-cache entries the flow produces record it.
  std::string tenant = "default";

  /// Controller leased to this flow from the ControllerPool (not owned;
  /// opaque below the federation layer). The A-UDTFs dispatch through it and
  /// the WfMS wrapper refuses to run while it is stopped.
  federation::Controller* controller = nullptr;

  /// Warmth ledger of the leased controller (not owned). Cold/warm/hot
  /// surcharges and MarkRun land here, so warmth follows the controller a
  /// flow actually ran on — not a global singleton.
  SystemState* warmth = nullptr;

  /// Warm-pool slot id of the leased controller (0 = unpooled). Result-cache
  /// entries record it so that rebooting or evicting the slot flushes them.
  uint64_t slot = 0;

  /// Saga execution of a write-path federated function (not owned; opaque
  /// below the txn layer like `controller`). Null for read-only calls — the
  /// overwhelmingly common case. When set, the couplings route mutating
  /// local calls through the saga's idempotency ledger and record captured
  /// outputs for compensation.
  txn::SagaExec* saga = nullptr;
};

}  // namespace fedflow::sim

#endif  // FEDFLOW_SIM_FLOW_STATE_H_
