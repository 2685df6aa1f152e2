// The integration server: the middle tier of the paper's three-tier
// architecture (Fig. 2). Owns the FDBS, the workflow engine (WfMS
// architecture) or the A-UDTF layer (enhanced SQL UDTF architecture), the
// controller, the application systems, and the simulation state. One server
// instance embodies one of the two evaluated architectures.
#ifndef FEDFLOW_FEDERATION_INTEGRATION_SERVER_H_
#define FEDFLOW_FEDERATION_INTEGRATION_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "appsys/dataset.h"
#include "appsys/registry.h"
#include "cache/plan_cache.h"
#include "cache/result_cache.h"
#include "fdbs/database.h"
#include "federation/controller.h"
#include "federation/controller_pool.h"
#include "federation/spec.h"
#include "federation/java_coupling.h"
#include "federation/udtf_coupling.h"
#include "federation/wfms_coupling.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "sim/flow_state.h"
#include "sim/latency.h"
#include "sim/resource_pools.h"
#include "sim/system_state.h"
#include "txn/saga.h"
#include "wfms/engine.h"

namespace fedflow::federation {

/// Which coupling the server runs.
enum class Architecture {
  kWfms,      ///< federated functions as workflow processes behind one wrapper
  kUdtf,      ///< federated functions as SQL I-UDTFs over A-UDTFs
  kJavaUdtf,  ///< federated functions as procedural ("Java") I-UDTFs over
              ///< A-UDTFs, issuing JDBC-style statements (paper §2)
};

/// Stable display name ("WfMS approach" / "UDTF approach").
const char* ArchitectureName(Architecture arch);

/// One integration-server deployment.
class IntegrationServer {
 public:
  /// Builds a server over the scenario's three application systems and
  /// boots it (controllers started, state cold). `pool_options` sizes the
  /// warm-controller pool; the default (max_size 1) reproduces the paper's
  /// single-controller deployment bit-identically.
  static Result<std::unique_ptr<IntegrationServer>> Create(
      Architecture arch, const appsys::Scenario& scenario,
      sim::LatencyModel model = {}, ControllerPoolOptions pool_options = {});

  /// Registers a federated function under the server's architecture. The
  /// spec is linted first: error diagnostics (including the FF3xx
  /// plan-consistency checks) reject the registration (InvalidArgument
  /// carrying every finding), warnings are collected and queryable via
  /// lint_warnings(). Unsupported when the UDTF architecture cannot express
  /// the mapping. `options` selects the plan-optimizer passes for this
  /// statement (default passthrough, mirroring ExecContext's opt-in
  /// predicate_pushdown).
  Status RegisterFederatedFunction(const FederatedFunctionSpec& spec,
                                   const plan::PlanOptions& options = {});

  /// Warning-severity fedlint findings accumulated across registrations.
  const std::vector<analysis::Diagnostic>& lint_warnings() const {
    return lint_warnings_;
  }

  /// Executes SQL without cost accounting (functional path): one untimed,
  /// untraced flow on the pinned controller and its ledger, taken without a
  /// lease.
  Result<Table> Query(const std::string& sql);

  /// A timed call: result plus virtual elapsed time and step breakdown.
  struct TimedResult {
    Table table;
    VDuration elapsed_us = 0;
    TimeBreakdown breakdown;
    sim::SystemState::Warmth warmth = sim::SystemState::Warmth::kHot;
  };

  /// Executes SQL under the virtual clock, as one flow of the default tenant
  /// on a controller leased from the pool without warmth affinity.
  /// kUnavailable when admission fails (pool exhausted).
  Result<TimedResult> QueryTimed(const std::string& sql);

  /// SELECT * FROM TABLE(name(args...)) AS R, timed. The arguments are
  /// bound as values; the call parses no SQL.
  Result<TimedResult> CallFederated(const std::string& name,
                                    const std::vector<Value>& args);

  /// CallFederated for one tenant's flow; tenants other than "default" also
  /// get tenant-scoped call metrics ("tenant.<t>.call.*"). Checks a
  /// controller out of the pool with `name` as warmth affinity and runs
  /// CallFederatedOnLease on it.
  Result<TimedResult> CallFederatedFor(const std::string& tenant,
                                       const std::string& name,
                                       const std::vector<Value>& args);

  /// The call itself, on a controller leased from controller_pool(). The
  /// load harness holds one lease per in-flight virtual flow for the flow's
  /// whole virtual duration, so concurrent flows occupy distinct
  /// controllers; this entry point runs the statement on that lease instead
  /// of checking out per call. Warmth is the leased ledger's pre-call
  /// verdict for `name`. InvalidArgument on a released lease.
  Result<TimedResult> CallFederatedOnLease(const ControllerPool::Lease& lease,
                                           const std::string& tenant,
                                           const std::string& name,
                                           const std::vector<Value>& args);

  /// Reboots the environment: controller restart, all caches cold, pooled
  /// controllers beyond the pinned one evicted.
  void Reboot();

  Architecture architecture() const { return arch_; }
  fdbs::Database& database() { return db_; }
  const appsys::AppSystemRegistry& systems() const { return systems_; }
  /// The pinned (primary) controller — the single-flow identity, and the
  /// controller Query runs on.
  Controller& controller() { return *controller_pool_.primary(); }
  /// The pinned controller's warmth ledger.
  sim::SystemState& state() { return *controller_pool_.primary_state(); }
  /// The warm-controller pool behind all flows.
  ControllerPool& controller_pool() { return controller_pool_; }
  const sim::LatencyModel& model() const { return model_; }

  /// Fault injector wired into every coupling's invocation path. Without
  /// profiles it is inert; configure profiles (or forced failures) and a
  /// retry policy to run the fault/recovery experiments.
  sim::FaultInjector& fault_injector() { return fault_injector_; }

  /// Coupling-level retry policy. Default-constructed = retries disabled;
  /// mutable so experiments can tune attempts/backoff/deadline (the
  /// couplings hold a pointer to this instance).
  sim::RetryPolicy& retry_policy() { return retry_policy_; }

  /// Modeled per-call deadline the registration-time dataflow analyses
  /// check plans against (FF420/FF422). 0 (the default) disables the
  /// deadline checks; set before RegisterFederatedFunction to enforce one.
  VDuration& analysis_deadline_us() { return analysis_deadline_us_; }

  /// The server's tracer. Default-disabled (every instrumentation site is a
  /// no-op and virtual-time totals are bit-identical to an uninstrumented
  /// build); call tracer().Enable() before a query to collect spans, then
  /// tracer().Snapshot() to export them.
  obs::Tracer& tracer() { return tracer_; }

  /// Counters and virtual-time histograms: per-function call counts, warmth
  /// transitions, retries, workflow checkpoints/resumes.
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// The compiled-plan cache: one optimized FedPlan per registered function,
  /// built exactly once at registration and shared by the lint gate, the
  /// dataflow analyses, the coupling lowerings and fedplan EXPLAIN.
  cache::PlanCache& plan_cache() { return plan_cache_; }
  const cache::PlanCache& plan_cache() const { return plan_cache_; }

  /// The result cache behind the opt-in caching path (see
  /// set_caching_enabled); always constructed, only consulted when enabled.
  cache::ResultCache& result_cache() { return result_cache_; }
  const cache::ResultCache& result_cache() const { return result_cache_; }

  /// The saga coordinator: write-path federated functions (specs with
  /// mutating calls + compensations) register their saga view here at
  /// RegisterFederatedFunction time, and CallFederated* runs them as sagas —
  /// idempotency-keyed exactly-once forward execution, compensation-based
  /// backward recovery on abort. Read-only functions never touch it.
  txn::SagaRuntime& saga_runtime() { return saga_runtime_; }
  const txn::SagaRuntime& saga_runtime() const { return saga_runtime_; }

  /// Per-statement opt-in for result caching, mirroring the opt-in optimizer
  /// passes: default OFF, so the uncached virtual-time totals every golden
  /// pins stay bit-identical. When ON, A-UDTF local calls are memoized and a
  /// whole federated call on a hot controller can be served straight from a
  /// resident entry at cache_hit_us.
  void set_caching_enabled(bool enabled) { caching_enabled_ = enabled; }
  bool caching_enabled() const { return caching_enabled_; }

  /// Columnar batch execution for this server's statements (default ON).
  /// Purely a wall-clock lever: results, virtual-time totals, and pipeline
  /// counters are identical either way — the differential harnesses run a
  /// row-only mirror server with this set to false.
  void set_columnar_execution(bool enabled) { columnar_execution_ = enabled; }
  bool columnar_execution() const { return columnar_execution_; }

  /// Forward-recovery checkpoint of a failed WfMS federated function; null
  /// under the UDTF architectures or when no instance is pending.
  const wfms::InstanceCheckpoint* recovery_checkpoint(
      const std::string& function) const {
    return wfms_ ? wfms_->wrapper()->checkpoint(function) : nullptr;
  }
  /// Engine of the WfMS architecture; null under the UDTF architecture.
  wfms::Engine* engine() { return engine_.get(); }

  /// Program invoker of the WfMS architecture (for driving the engine
  /// directly, e.g. to inspect audit trails); null under the UDTF
  /// architecture.
  wfms::ProgramInvoker* program_invoker() {
    return wfms_ ? wfms_->wrapper()->invoker() : nullptr;
  }

 private:
  /// Runs `stmt` as one timed and traced statement of `flow` (a lease's
  /// flow): the clock and trace session are the statement's own. `sql` is
  /// the statement's source text for the trace; when empty, a traced
  /// SELECT is rendered back to SQL (untraced runs print nothing). The
  /// result's warmth is left at its default. On failure `failed_elapsed_us`
  /// (optional) receives the virtual time the failed flow burned — the clock
  /// is lost with the flow otherwise, and the saga abort path accounts it
  /// into the outcome.
  Result<TimedResult> RunFlow(sim::FlowState& flow, const sql::Statement& stmt,
                              const std::string& sql,
                              VDuration* failed_elapsed_us = nullptr);

  /// CallFederatedOnLease body for a saga-registered (write-path) function:
  /// Begin outside every coupling retry loop (idempotency keys must survive
  /// WfMS resume and I-UDTF restart alike), the saga rides `flow` so the
  /// couplings route mutating calls through it, never whole-call cached,
  /// Commit on success, Abort + backward recovery on failure.
  Result<TimedResult> RunSagaCall(const txn::SagaSpecInfo& info,
                                  sim::FlowState& flow,
                                  const std::string& name,
                                  const std::vector<Value>& args);

  /// The whole-federated-call cache key of name(args): the data-version
  /// stamp covers the systems the cached plan calls into (every registered
  /// system when no plan is resident).
  cache::ResultCache::Key FederatedCacheKey(
      const std::string& name, const std::vector<Value>& args) const;

  /// Serves name(args) from a resident whole-call entry when caching is
  /// enabled and the leased controller is hot for `name` — the fleet
  /// generalization of the paper's hot call. True on a hit (with `*out`
  /// filled at cache_hit_us); false = run the flow for real.
  bool TryServeCached(sim::SystemState::Warmth warmth, const std::string& name,
                      const std::vector<Value>& args, TimedResult* out);

  /// Post-run bookkeeping of the opt-in cache: charges the probe that
  /// preceded a hot miss onto `result` and memoizes the call result.
  void FinishCachedCall(sim::SystemState::Warmth warmth, uint64_t slot,
                        const std::string& tenant, const std::string& name,
                        const std::vector<Value>& args, TimedResult* result);

  /// The call.* counters/histograms (plus the tenant-scoped view for
  /// non-default tenants) recorded after every successful federated call.
  void RecordCallMetrics(const std::string& tenant, const std::string& name,
                         const TimedResult& result);

  IntegrationServer(Architecture arch, sim::LatencyModel model,
                    ControllerPoolOptions pool_options)
      : arch_(arch),
        model_(model),
        controller_pool_(&systems_, &model_, pool_options) {}

  Architecture arch_;
  sim::LatencyModel model_;
  obs::Tracer tracer_;
  obs::MetricsRegistry metrics_;
  appsys::AppSystemRegistry systems_;
  cache::PlanCache plan_cache_;
  cache::ResultCache result_cache_;
  txn::SagaRuntime saga_runtime_;
  bool caching_enabled_ = false;
  bool columnar_execution_ = true;
  ControllerPool controller_pool_;
  sim::FaultInjector fault_injector_;
  sim::RetryPolicy retry_policy_;
  VDuration analysis_deadline_us_ = 0;
  fdbs::Database db_;
  std::unique_ptr<wfms::Engine> engine_;
  std::unique_ptr<WfmsCoupling> wfms_;
  std::unique_ptr<UdtfCoupling> udtf_;
  std::unique_ptr<JavaUdtfCoupling> java_;
  std::vector<analysis::Diagnostic> lint_warnings_;
};

}  // namespace fedflow::federation

#endif  // FEDFLOW_FEDERATION_INTEGRATION_SERVER_H_
