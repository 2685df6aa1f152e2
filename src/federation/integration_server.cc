#include "federation/integration_server.h"

#include <algorithm>

#include "analysis/dataflow/dataflow_lint.h"
#include "analysis/plan_lint.h"
#include "analysis/spec_lint.h"
#include "appsys/pdm.h"
#include "appsys/purchasing.h"
#include "appsys/stockkeeping.h"
#include "cache/cache_key.h"
#include "sim/flow_state.h"
#include "sql/ast.h"
#include "sql/parser.h"

namespace fedflow::federation {

namespace {

/// The flow of `tenant` on a leased controller, its ledger and its slot.
sim::FlowState LeaseFlow(const ControllerPool::Lease& lease,
                         const std::string& tenant) {
  sim::FlowState flow;
  flow.tenant = tenant;
  flow.controller = lease.controller();
  flow.warmth = lease.ledger();
  flow.slot = lease.slot();
  return flow;
}

/// SELECT * FROM TABLE (name(args...)) AS R, built directly: the arguments
/// stay Values (literal expressions), so nothing is printed or parsed.
sql::Statement CallStatement(const std::string& name,
                             const std::vector<Value>& args) {
  sql::TableRef call;
  call.kind = sql::TableRefKind::kTableFunction;
  call.name = name;
  call.alias = "R";
  for (const Value& arg : args) {
    call.args.push_back(std::make_shared<sql::LiteralExpr>(arg));
  }
  sql::SelectItem star;
  star.is_star = true;
  sql::Statement stmt;
  stmt.select = std::make_unique<sql::SelectStmt>();
  stmt.select->items.push_back(std::move(star));
  stmt.select->from.push_back(std::move(call));
  return stmt;
}

}  // namespace

const char* ArchitectureName(Architecture arch) {
  switch (arch) {
    case Architecture::kWfms:
      return "WfMS approach";
    case Architecture::kUdtf:
      return "UDTF approach";
    case Architecture::kJavaUdtf:
      return "Java UDTF approach";
  }
  return "?";
}

Result<std::unique_ptr<IntegrationServer>> IntegrationServer::Create(
    Architecture arch, const appsys::Scenario& scenario,
    sim::LatencyModel model, ControllerPoolOptions pool_options) {
  std::unique_ptr<IntegrationServer> server(
      new IntegrationServer(arch, model, pool_options));
  FEDFLOW_RETURN_NOT_OK(server->systems_.Add(
      std::make_shared<appsys::StockKeepingSystem>(scenario)));
  FEDFLOW_RETURN_NOT_OK(
      server->systems_.Add(std::make_shared<appsys::PurchasingSystem>(scenario)));
  FEDFLOW_RETURN_NOT_OK(
      server->systems_.Add(std::make_shared<appsys::PdmSystem>(scenario)));

  // The couplings hold no controller or ledger of their own: every call
  // brings both in its flow (ExecContext::flow).
  server->controller_pool_.AttachMetrics(&server->metrics_);
  server->plan_cache_.AttachMetrics(&server->metrics_);
  server->result_cache_.AttachMetrics(&server->metrics_);
  // Slot evictions and reboots must flush the results priced on them.
  server->controller_pool_.AttachResultCache(&server->result_cache_);
  server->saga_runtime_.Configure(&server->systems_, model, &server->metrics_);
  // Adaptive admission: never cache a result whose modeled saving is below
  // the probe that would serve it.
  cache::ResultCacheOptions rc_options = server->result_cache_.options();
  rc_options.min_saved_cost_us = server->model_.cache_probe_us;
  server->result_cache_.set_options(rc_options);
  if (arch == Architecture::kWfms) {
    wfms::EngineOptions options;
    options.navigation_cost_us = server->model_.wf_navigation_us;
    options.container_cost_us = server->model_.wf_container_us;
    options.helper_cost_us = server->model_.wf_helper_us;
    options.metrics = &server->metrics_;
    server->engine_ = std::make_unique<wfms::Engine>(options);
    server->wfms_ = std::make_unique<WfmsCoupling>(
        &server->db_, server->engine_.get(), &server->systems_,
        &server->model_, &server->fault_injector_, &server->retry_policy_);
  } else {
    // Both UDTF variants sit on the same A-UDTF access layer.
    server->udtf_ = std::make_unique<UdtfCoupling>(
        &server->db_, &server->systems_, &server->model_,
        &server->fault_injector_, &server->retry_policy_);
    FEDFLOW_RETURN_NOT_OK(server->udtf_->RegisterAccessUdtfs());
    if (arch == Architecture::kJavaUdtf) {
      server->java_ = std::make_unique<JavaUdtfCoupling>(
          &server->db_, &server->systems_, &server->model_,
          &server->retry_policy_);
    }
  }

  server->controller_pool_.Start();
  server->controller_pool_.primary_state()->Boot();
  return server;
}

Status IntegrationServer::RegisterFederatedFunction(
    const FederatedFunctionSpec& spec, const plan::PlanOptions& options) {
  // Static verification gate: a spec with error findings never reaches a
  // coupling; warnings are kept for the operator to query.
  std::vector<analysis::Diagnostic> diags = analysis::LintSpec(spec, systems_);
  std::shared_ptr<const plan::FedPlan> fed_plan;
  if (!analysis::HasErrors(diags)) {
    // Compile + optimize exactly once, at registration. The cached plan is
    // handed to the FF3xx lint, the dataflow analyses and the coupling — and
    // stays resident for per-call interpreters and fedplan EXPLAIN. When
    // compilation fails, LintPlan's own compile attempt reports FF304 below
    // and the registration is rejected on that diagnostic.
    Result<std::shared_ptr<const plan::FedPlan>> built =
        plan_cache_.GetOrBuild(spec, systems_, model_, options);
    if (built.ok()) fed_plan = *built;
    // Plan-consistency gate (FF3xx): the lowerings of the optimized plan
    // must agree with it on call set, ordering and classification. Only
    // reachable for plannable specs, hence behind the spec-lint errors.
    std::vector<analysis::Diagnostic> plan_diags =
        analysis::LintPlan(spec, systems_, model_, options, fed_plan.get());
    for (analysis::Diagnostic& d : plan_diags) {
      diags.push_back(std::move(d));
    }
    // Deployment-consistency warning (FF310): a parallelized plan over a
    // single-controller pool serializes its parallel stages.
    std::vector<analysis::Diagnostic> pool_diags = analysis::LintPoolConfig(
        spec, options, controller_pool_.options().max_size);
    for (analysis::Diagnostic& d : pool_diags) {
      diags.push_back(std::move(d));
    }
    // Abstract-interpretation gate (FF4xx): schema, cardinality, budget and
    // tenant-flow dataflow analyses over the compiled plan, parameterized by
    // this deployment (deadline, retry policy, pool shape).
    analysis::DataflowOptions dopts;
    dopts.deadline_us = analysis_deadline_us_;
    dopts.retry = retry_policy_;
    dopts.pool_max_size = controller_pool_.options().max_size;
    dopts.per_tenant_quota = controller_pool_.options().per_tenant_quota;
    dopts.parallelize = options.parallelize;
    // The server runs write-path functions as sagas (idempotency ledger +
    // compensation), so FF453 must not fire on retrying deployments.
    dopts.saga_coordination = true;
    Result<analysis::DataflowResult> dataflow =
        analysis::RunDataflow(spec, systems_, model_, dopts, fed_plan.get());
    if (dataflow.ok()) {
      metrics_.Inc("analysis.dataflow.runs");
      for (analysis::Diagnostic& d : dataflow->diagnostics) {
        metrics_.Inc(d.severity == analysis::Severity::kError
                         ? "analysis.dataflow.errors"
                         : "analysis.dataflow.warnings");
        diags.push_back(std::move(d));
      }
    }
  }
  if (analysis::HasErrors(diags)) {
    return Status::InvalidArgument(
        "fedlint rejected spec '" + spec.name + "':\n" +
        analysis::FormatDiagnostics(analysis::Filter(
            diags, analysis::Severity::kError)));
  }
  for (analysis::Diagnostic& d : diags) {
    lint_warnings_.push_back(std::move(d));
  }
  if (fed_plan == nullptr) {
    // A plan that failed to compile is rejected by FF304 above.
    return Status::Internal("no compiled plan for '" + spec.name +
                            "' although the lint gate passed");
  }
  Status registered = [&] {
    switch (arch_) {
      case Architecture::kWfms:
        return wfms_->RegisterFederatedFunction(spec, *fed_plan);
      case Architecture::kUdtf:
        return udtf_->RegisterFederatedFunction(spec, *fed_plan);
      case Architecture::kJavaUdtf:
        return java_->RegisterFederatedFunction(spec, *fed_plan);
    }
    return Status::Internal("bad architecture");
  }();
  FEDFLOW_RETURN_NOT_OK(registered);
  // Write-path functions additionally register their saga view (a no-op for
  // read-only specs): the plan's execution order chains the writes the way
  // the lowering runs them.
  return saga_runtime_.Register(spec, fed_plan->order);
}

Result<Table> IntegrationServer::Query(const std::string& sql) {
  // Untimed (no clock, no trace): one flow on the pinned controller and its
  // ledger, without a lease.
  sim::FlowState flow;
  flow.controller = controller_pool_.primary();
  flow.warmth = controller_pool_.primary_state();
  fdbs::ExecContext ctx;
  ctx.db = &db_;
  ctx.columnar = columnar_execution_;
  ctx.flow = &flow;
  return db_.Execute(sql, ctx);
}

Result<IntegrationServer::TimedResult> IntegrationServer::QueryTimed(
    const std::string& sql) {
  // The free text is parsed once; from here on it runs like a call.
  FEDFLOW_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  // Admission: lease a controller (no warmth affinity) for the whole flow.
  // With pool size 1 this always returns the pinned controller. Free-form
  // SQL names no function, so the result reports the default kHot.
  FEDFLOW_ASSIGN_OR_RETURN(ControllerPool::Lease lease,
                           controller_pool_.Checkout("default", ""));
  sim::FlowState flow = LeaseFlow(lease, "default");
  return RunFlow(flow, stmt, sql);
}

Result<IntegrationServer::TimedResult> IntegrationServer::RunFlow(
    sim::FlowState& flow, const sql::Statement& stmt, const std::string& sql,
    VDuration* failed_elapsed_us) {
  // One statement, one timeline: the clock and the trace session live for
  // the flow's statement and are reached through the ExecContext.
  SimClock clock;
  obs::TraceSession session(&tracer_, &clock);
  // Per-flow pipeline statistics (residency and batch counts), exported to
  // the registry after the flow. Stack-local so concurrent flows never share
  // a counter.
  PipelineStats pipeline_stats;
  fdbs::ExecContext ctx;
  ctx.clock = &clock;
  ctx.db = &db_;
  ctx.trace = &session;
  ctx.metrics = &metrics_;
  ctx.flow = &flow;
  ctx.result_cache = &result_cache_;
  ctx.use_result_cache = caching_enabled_;
  ctx.columnar = columnar_execution_;
  ctx.pipeline_stats = &pipeline_stats;
  Result<Table> table = [&] {
    // While the session observes the clock, every Charge/ChargeWork lands in
    // the current span — the completeness invariant that makes the span tree
    // reproduce the breakdown exactly.
    if (tracer_.enabled()) clock.set_observer(&session);
    obs::SpanScope root(&session, "query", obs::Layer::kFdbs);
    if (root.id() != 0) {
      root.SetAttribute("sql", sql.empty() ? stmt.select->ToSql() : sql);
    }
    Result<Table> t = db_.Execute(stmt, ctx);
    if (!t.ok()) root.SetStatus(t.status());
    return t;
  }();
  clock.set_observer(nullptr);
  obs::ExportPipelineStats(pipeline_stats, &metrics_);
  if (!table.ok()) {
    // The flow (and its clock) dies with the failure; surface the elapsed
    // virtual time so the saga abort can account the wasted forward work.
    if (failed_elapsed_us != nullptr) *failed_elapsed_us = clock.now();
    return table.status();
  }
  TimedResult result;
  result.table = std::move(table).ValueUnsafe();
  result.elapsed_us = clock.now();
  result.breakdown = clock.breakdown();
  return result;
}

void IntegrationServer::RecordCallMetrics(const std::string& tenant,
                                          const std::string& name,
                                          const TimedResult& result) {
  const sim::SystemState::Warmth warmth = result.warmth;
  // The function name is one dotted segment of the metric name; escaping it
  // keeps "Get.Stock" from aliasing a "Get" function's "Stock" sub-metric.
  const std::string fn = obs::EscapeMetricSegment(name);
  metrics_.Inc("call.count");
  metrics_.Inc("call.function." + fn);
  metrics_.Inc(std::string("call.warmth.") + sim::WarmthName(warmth));
  metrics_.Observe(std::string("call.elapsed_us.") + sim::WarmthName(warmth),
                   result.elapsed_us);
  metrics_.Observe(
      "call.elapsed_us." + fn + "." + sim::WarmthName(warmth),
      result.elapsed_us);
  if (tenant != "default") {
    obs::TenantMetrics scoped(&metrics_, tenant);
    scoped.Inc("call.count");
    scoped.Inc("call.function." + fn);
    scoped.Observe("call.elapsed_us", result.elapsed_us);
  }
}

cache::ResultCache::Key IntegrationServer::FederatedCacheKey(
    const std::string& name, const std::vector<Value>& args) const {
  cache::ResultCache::Key key;
  key.scope = cache::kFederatedScope;
  key.function = name;
  key.args = cache::FingerprintArgs(args);
  // Stamp the systems the cached plan calls into, in first-call order; with
  // no resident plan (e.g. a function registered through a coupling
  // directly), conservatively stamp every registered system.
  std::vector<std::string> stamped;
  if (std::shared_ptr<const plan::FedPlan> plan = plan_cache_.Lookup(name)) {
    for (const plan::PlanCall& call : plan->calls) {
      if (std::find(stamped.begin(), stamped.end(), call.system) ==
          stamped.end()) {
        stamped.push_back(call.system);
      }
    }
  } else {
    stamped = systems_.Names();
  }
  key.version = cache::DataVersionStamp(systems_, stamped);
  return key;
}

bool IntegrationServer::TryServeCached(sim::SystemState::Warmth warmth,
                                       const std::string& name,
                                       const std::vector<Value>& args,
                                       TimedResult* out) {
  // Hot slot + resident entry: the fleet generalization of the paper's hot
  // call — the modeled call is skipped entirely. Cold and warm calls always
  // run for real (the warm-up is the phenomenon under measurement).
  if (!caching_enabled_ || warmth != sim::SystemState::Warmth::kHot) {
    return false;
  }
  Table resident;
  if (!result_cache_.Lookup(FederatedCacheKey(name, args), &resident)) {
    return false;
  }
  out->table = std::move(resident);
  out->elapsed_us = model_.cache_hit_us;
  out->breakdown = TimeBreakdown();
  out->breakdown.Add(sim::steps::kCacheHit, model_.cache_hit_us);
  out->warmth = warmth;
  return true;
}

void IntegrationServer::FinishCachedCall(sim::SystemState::Warmth warmth,
                                         uint64_t slot,
                                         const std::string& tenant,
                                         const std::string& name,
                                         const std::vector<Value>& args,
                                         TimedResult* result) {
  if (!caching_enabled_) return;
  // A hot call probed the cache before falling through to the real flow;
  // the flow's own clock never saw that probe.
  if (warmth == sim::SystemState::Warmth::kHot) {
    result->elapsed_us += model_.cache_probe_us;
    result->breakdown.Add(sim::steps::kCacheProbe, model_.cache_probe_us);
  }
  cache::ResultCache::Entry entry;
  entry.table = result->table;
  entry.saved_cost_us = result->elapsed_us;
  entry.slot = slot;
  entry.tenant = tenant;
  // Keyed at the post-call data versions: a call that itself mutated a store
  // inserts under the new stamp and can never serve the pre-mutation state.
  result_cache_.Insert(FederatedCacheKey(name, args), std::move(entry));
}

Result<IntegrationServer::TimedResult> IntegrationServer::CallFederated(
    const std::string& name, const std::vector<Value>& args) {
  return CallFederatedFor("default", name, args);
}

Result<IntegrationServer::TimedResult> IntegrationServer::RunSagaCall(
    const txn::SagaSpecInfo& info, sim::FlowState& flow,
    const std::string& name, const std::vector<Value>& args) {
  // Begin OUTSIDE every coupling retry loop: the idempotency keys must stay
  // stable across a WfMS checkpoint resume and across an I-UDTF whole
  // statement restart, or the dedup ledger could never recognize a retried
  // write. A write-path call is never served from (or inserted into) the
  // whole-call result cache — its effect is the point of the call.
  std::unique_ptr<txn::SagaExec> exec = saga_runtime_.Begin(info, args);
  flow.saga = exec.get();
  VDuration failed_elapsed_us = 0;
  Result<TimedResult> result =
      RunFlow(flow, CallStatement(name, args), "", &failed_elapsed_us);
  if (!result.ok()) {
    // Backward recovery: compensate the applied steps in reverse order. The
    // outcome (including the modeled abort cost) is queryable through
    // saga_runtime().LastOutcome(name); the caller sees the original error.
    (void)saga_runtime_.Abort(*exec, failed_elapsed_us, result.status());
    // Backward recovery supersedes forward recovery: the WfMS checkpoint
    // memoizes activities whose effects were just compensated, so a later
    // resume from it would skip re-applying the undone writes.
    if (wfms_ != nullptr) wfms_->wrapper()->ClearCheckpoint(name);
    return result.status();
  }
  saga_runtime_.Commit(*exec);
  RecordCallMetrics(flow.tenant, name, *result);
  return result;
}

Result<IntegrationServer::TimedResult> IntegrationServer::CallFederatedFor(
    const std::string& tenant, const std::string& name,
    const std::vector<Value>& args) {
  // Admission: lease a controller for the whole call. With pool size 1 this
  // always returns the pinned controller — the legacy single-flow path.
  FEDFLOW_ASSIGN_OR_RETURN(ControllerPool::Lease lease,
                           controller_pool_.Checkout(tenant, name));
  return CallFederatedOnLease(lease, tenant, name, args);
}

Result<IntegrationServer::TimedResult> IntegrationServer::CallFederatedOnLease(
    const ControllerPool::Lease& lease, const std::string& tenant,
    const std::string& name, const std::vector<Value>& args) {
  if (!lease.valid()) {
    return Status::InvalidArgument(
        "CallFederatedOnLease: lease was already released");
  }
  // Pre-call verdict: what this function experiences on the leased
  // controller. Must be read before execution marks the function run. On a
  // lease just checked out it equals the checkout's own verdict: the slot is
  // busy, so nothing ran on it in between (a newly created slot reads cold
  // either way).
  const sim::SystemState::Warmth warmth = lease.ledger()->QueryWarmth(name);
  sim::FlowState flow = LeaseFlow(lease, tenant);
  if (const txn::SagaSpecInfo* info = saga_runtime_.Find(name)) {
    FEDFLOW_ASSIGN_OR_RETURN(TimedResult saga_result,
                             RunSagaCall(*info, flow, name, args));
    saga_result.warmth = warmth;
    return saga_result;
  }
  TimedResult result;
  if (TryServeCached(warmth, name, args, &result)) {
    lease.ledger()->MarkRun(name);
    RecordCallMetrics(tenant, name, result);
    return result;
  }
  FEDFLOW_ASSIGN_OR_RETURN(result,
                           RunFlow(flow, CallStatement(name, args), ""));
  result.warmth = warmth;
  FinishCachedCall(warmth, lease.slot(), tenant, name, args, &result);
  RecordCallMetrics(tenant, name, result);
  return result;
}

void IntegrationServer::Reboot() {
  // No leases are outstanding when a caller reboots the environment (flows
  // release their controller before their call returns), so the pool
  // reboot cannot fail.
  (void)controller_pool_.Reboot();
}

}  // namespace fedflow::federation
