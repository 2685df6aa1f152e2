// Test helper for couplings built directly (not through an
// IntegrationServer): every coupling invocation needs a flow, so a test runs
// its statements inside one on its own controller and warmth ledger.
#ifndef FEDFLOW_TESTS_FEDERATION_IN_FLOW_H_
#define FEDFLOW_TESTS_FEDERATION_IN_FLOW_H_

#include <string>

#include "fdbs/database.h"
#include "federation/controller.h"
#include "sim/flow_state.h"
#include "sim/system_state.h"

namespace fedflow::federation {

/// Executes `sql` on `db` in a flow on `controller` and `ledger`, charging
/// `clock` when set.
inline Result<Table> ExecuteInFlow(fdbs::Database& db, Controller* controller,
                                   sim::SystemState* ledger,
                                   const std::string& sql,
                                   SimClock* clock = nullptr) {
  sim::FlowState flow;
  flow.controller = controller;
  flow.warmth = ledger;
  fdbs::ExecContext ctx;
  ctx.clock = clock;
  ctx.flow = &flow;
  return db.Execute(sql, ctx);
}

}  // namespace fedflow::federation

#endif  // FEDFLOW_TESTS_FEDERATION_IN_FLOW_H_
