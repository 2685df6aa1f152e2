// The enhanced Java UDTF architecture (paper §2): A-UDTFs as in the SQL UDTF
// architecture, but the Integration UDTF is implemented in a host language
// ("Java" in the paper; C++ here) issuing JDBC-style statements against the
// FDBS. This lifts the one-SQL-statement restriction: the body may issue as
// many statements as needed and use control structures — so, unlike the SQL
// variant, it CAN express the cyclic case with a client-side do-until loop.
#ifndef FEDFLOW_FEDERATION_JAVA_COUPLING_H_
#define FEDFLOW_FEDERATION_JAVA_COUPLING_H_

#include "appsys/registry.h"
#include "fdbs/database.h"
#include "federation/classify.h"
#include "federation/spec.h"
#include "plan/optimizer.h"
#include "sim/fault.h"
#include "sim/latency.h"

namespace fedflow::federation {

/// True when the Java UDTF architecture can express this case (everything
/// except the general case, which needs one artifact covering several
/// federated functions).
bool JavaUdtfSupports(MappingCase c);

/// Wires Java-style procedural I-UDTFs into an FDBS. A-UDTF registration is
/// shared with UdtfCoupling (both variants sit on the same access layer).
class JavaUdtfCoupling {
 public:
  /// `retry` (optional) is the deployment's statement-level retry policy:
  /// like the SQL I-UDTF, the procedural body holds no state between
  /// attempts, so a retriable failure re-executes the whole body.
  JavaUdtfCoupling(fdbs::Database* db,
                   const appsys::AppSystemRegistry* systems,
                   const sim::LatencyModel* model,
                   const sim::RetryPolicy* retry = nullptr)
      : db_(db), systems_(systems), model_(model), retry_(retry) {}

  /// Compiles the spec into the federated plan (plan/fed_plan.h) and
  /// registers a procedural I-UDTF over it. The body SELECT is the one the
  /// SQL I-UDTF would contain, prepared once at registration with the
  /// parameters (and, when looping, ITERATION) as bound `Name.Param`
  /// references. Non-cyclic plans execute it once per call; cyclic plans
  /// run a client-side do-until loop executing it once per iteration and
  /// unioning the results. Optimizer passes are opt-in via `options` and
  /// shape the plan once, at registration.
  Status RegisterFederatedFunction(const FederatedFunctionSpec& spec,
                                   const plan::PlanOptions& options = {});

  /// Registers from an already-built plan without recompiling.
  Status RegisterFederatedFunction(const FederatedFunctionSpec& spec,
                                   const plan::FedPlan& fed_plan);

 private:
  fdbs::Database* db_;
  const appsys::AppSystemRegistry* systems_;
  const sim::LatencyModel* model_;
  const sim::RetryPolicy* retry_;
};

}  // namespace fedflow::federation

#endif  // FEDFLOW_FEDERATION_JAVA_COUPLING_H_
